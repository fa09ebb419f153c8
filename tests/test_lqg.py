import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlqg import frank_wolfe
from robustlqg.divergences import DivergenceKind
from robustlqg.errors import ConditioningError, InvalidInputError
from robustlqg.frank_wolfe import FwConfig
from robustlqg.gradient import _adjoint, _lqg_gradient
from robustlqg.instances import generate_instance
from robustlqg.lqg import (
    CovarianceProfile,
    SystemInstance,
    _lqg_cost,
    _riccati_step,
    kalman_forward,
    lqg_value,
    riccati_backward,
)
from robustlqg.matops import spectral_radius, symmetrize

from conftest import (
    counting,
    rand_profile,
    rand_spd,
    rand_system,
    scalar_unit_profile,
    scalar_unit_system,
)
from reference import kalman_forward_reference, lqg_gradient_reference, simulate_closed_loop


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


def _plain_riccati(sys):
    """The recursion riccati_backward stands for, every step computed."""
    P = np.empty((sys.T + 1, sys.n, sys.n))
    K = np.empty((sys.T, sys.m, sys.n))
    P[sys.T] = symmetrize(sys.Q[sys.T])
    for t in range(sys.T - 1, -1, -1):
        P[t], K[t] = _riccati_step(P[t + 1], sys.A[t], sys.B[t], sys.Q[t], sys.R[t])
    return P, K


def _hard_system(d=10, T=20):
    """Near-unstable dynamics whose Riccati sweep never reaches a fixed point:
    A = 0.95 I + 0.3 superdiag rescaled to spectral radius 0.95, B=C=Q=R=I."""
    A = 0.95 * np.eye(d) + 0.3 * np.diag(np.ones(d - 1), 1)
    A *= 0.95 / spectral_radius(A)
    eye = np.eye(d)
    return SystemInstance.time_invariant(A, eye, eye, eye, eye, T=T)


def _paper_variant(A_steps=None, Qf=None):
    """The paper system (d = 10, T = 50) with A replaced by 0.3 I over the
    steps A_steps, or with terminal cost Qf."""
    sys, _ = generate_instance(10, 50, seed=0)
    A, Q = sys.A.copy(), sys.Q.copy()
    if A_steps is not None:
        A[A_steps] = 0.3 * np.eye(10)
    if Qf is not None:
        Q[-1] = Qf
    return SystemInstance(T=sys.T, A=A, B=sys.B, C=sys.C, Q=Q, R=sys.R)


@pytest.mark.parametrize("case", ["paper", "hard", "A-after-tail", "A-in-two-runs", "terminal-Q"])
def test_riccati_fixed_point_tail_is_bit_identical(monkeypatch, case):
    # a converged tail is filled, not recomputed, and the recursion resumes
    # where the matrices change; P and K match the plain recursion bit for
    # bit, on a system whose A changes after the tail converges (once, and
    # in two separate runs) and on one with its own terminal cost
    from robustlqg import lqg

    sys = {
        "paper": lambda: generate_instance(10, 50, seed=0)[0],
        "hard": _hard_system,
        "A-after-tail": lambda: _paper_variant(A_steps=slice(0, 10)),
        "A-in-two-runs": lambda: _paper_variant(A_steps=[5, 6, 7, 20, 21]),
        "terminal-Q": lambda: _paper_variant(Qf=5.0 * np.eye(10)),
    }[case]()
    P0, K0 = _plain_riccati(sys)
    steps = counting(monkeypatch, lqg, "_riccati_step")
    P, K = riccati_backward(sys)
    assert P.tobytes() == P0.tobytes() and K.tobytes() == K0.tobytes()
    if case == "hard":
        assert len(steps) == sys.T
    else:  # the fill ran
        assert len(steps) < sys.T


def test_riccati_sweep_on_the_paper_system_stops_at_its_fixed_point(monkeypatch):
    # the paper system's sweep reaches its fixed point after 16 of 50 steps
    from robustlqg import lqg

    sys, _ = generate_instance(10, 50, seed=0)
    steps = counting(monkeypatch, lqg, "_riccati_step")
    riccati_backward(sys)
    assert len(steps) <= 20


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
    # the filtered covariances are exactly symmetric; the gain kalman_forward
    # returns is the filter gain Sigma_filt C^T V^{-1} and equals the
    # innovation gain S C^T E^{-1}, E = C S C^T + V, the form the adjoint's
    # Joseph-form differential is derived with
    rng = np.random.default_rng(seed)
    sys = rand_system(rng, n=n, m=m, p=p, T=T)
    cov = rand_profile(rng, sys)
    filt, pred, L = kalman_forward(sys, cov)
    assert np.array_equal(filt, filt.swapaxes(1, 2))
    for t in range(T):
        C, S = sys.C[t], pred[t]
        for want in (np.linalg.solve(cov.V[t], (filt[t] @ C.T).T).T,
                     np.linalg.solve(C @ S @ C.T + cov.V[t], C @ S).T):
            assert np.abs(L[t] - want).max() <= 1e-10 * np.abs(want).max()


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _spread_prior(n):
    """A prior spread over 11 decades, U diag(1e8, 1, 1e-3) U^T, and its
    eigenpairs. Seen through almost noiseless sensors (C = I, V = 1e-9 I)
    the printed update S - L C S cancels to below its rounding error there
    and loses psd."""
    U, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    lam = np.array([1e8, 1.0, 1e-3])
    return symmetrize((U * lam) @ U.T), lam, U


def _closed_form_update(lam, U, v):
    """Sigma_filt for S = U diag(lam) U^T, C = I and V = v I:
    U diag(1 / (1/lam + 1/v)) U^T."""
    return (U / (1.0 / lam + 1.0 / v)) @ U.T


def test_kalman_ill_conditioned_update_matches_the_closed_form():
    n, v = 3, 1e-9
    eye = np.eye(n)
    sys = SystemInstance.time_invariant(eye, eye, eye, eye, eye, T=1)
    S, lam, U = _spread_prior(n)
    cov = CovarianceProfile(X0=S, W=eye[None], V=(v * eye)[None])
    filt, pred, L = kalman_forward(sys, cov)
    want = _closed_form_update(lam, U, v)
    assert np.linalg.eigvalsh(filt[0]).min() >= 0.0
    assert _rel_err(filt[0], want) <= 1e-6
    assert _rel_err(L[0], want / v) <= 1e-6
    # the prediction reads the same update: A = I and W = I
    assert np.array_equal(pred[0], cov.X0)
    assert _rel_err(pred[1], filt[0] + eye) <= 1e-15


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    p=st.integers(1, 4),
    T=st.integers(1, 6),
)
def test_sweeps_match_the_per_step_references(seed, n, m, p, T):
    # the information-form Kalman sweep with its batched gains and checks,
    # and the adjoint sweep with its batched set-up, against the per-step
    # covariance-form sweeps they replaced
    rng = np.random.default_rng(seed)
    sys = rand_system(rng, n=n, m=m, p=p, T=T)
    cov = rand_profile(rng, sys)
    P, _ = riccati_backward(sys)
    got, want = kalman_forward(sys, cov), kalman_forward_reference(sys, cov)
    for g, w in zip(got, want):
        assert _rel_err(g, w) <= 1e-12
    value, grad = _lqg_gradient(sys, P, cov)
    ref_value, ref_grad = lqg_gradient_reference(sys, P, cov)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert abs(_lqg_cost(sys, P, got[0], got[1]) - ref_value) <= 1e-12 * abs(ref_value)
    # per stack: a dV block whose terms cancel to 1e-5 of its neighbours
    # carries rounding noise of its neighbours' size
    for name in ("dX0", "dW", "dV"):
        assert _rel_err(getattr(grad, name), getattr(ref_grad, name)) <= 1e-12


@pytest.mark.parametrize("T, radius, n, p", [(800, 0.99, 4, 2), (200, 1.2, 4, 3)],
                         ids=["T800-stable", "T200-unstable"])
def test_sweeps_match_the_references_over_long_horizons(T, radius, n, p):
    # the sweeps symmetrize once after their time loops, not per step, so a
    # rounding asymmetry travels through the whole horizon: near-unstable and
    # unstable dynamics observed through fewer sensors than states must still
    # match the per-step symmetrized references, and the returned stacks must
    # be exactly symmetric
    rng = np.random.default_rng(29)
    A = rng.standard_normal((n, n))
    A *= radius / spectral_radius(A)
    sys = SystemInstance.time_invariant(A, rng.standard_normal((n, 2)),
                                        rng.standard_normal((p, n)), rand_spd(n, rng),
                                        rand_spd(2, rng), T=T)
    cov = rand_profile(rng, sys)
    P, _ = riccati_backward(sys)
    got, want = kalman_forward(sys, cov), kalman_forward_reference(sys, cov)
    for g, w in zip(got, want):
        assert _rel_err(g, w) <= 1e-12
    value, grad = _lqg_gradient(sys, P, cov)
    ref_value, ref_grad = lqg_gradient_reference(sys, P, cov)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    for name in ("dX0", "dW", "dV"):
        assert _rel_err(getattr(grad, name), getattr(ref_grad, name)) <= 1e-12
    for stack in (got[0], got[1], grad.dX0, grad.dW, grad.dV):
        assert np.array_equal(stack, stack.swapaxes(-1, -2))


def _linalg_calls(monkeypatch):
    """Count every call into numpy.linalg's public functions, which the
    solve path makes none of: it calls the matops kernels."""
    calls = []
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            def counting(*args, fn=fn, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_sweeps_make_about_one_linalg_call_per_step(monkeypatch, kernel_calls):
    # a timing-free guard: the per-step work of the Kalman sweep is one
    # solve, and its set-up, checks and gains are four batched calls: the
    # Cholesky of V, the solve for V^{-1} C, the Cholesky of E and the
    # Cholesky of Sigma_filt (the gains are a product), T + 4 kernel calls
    # and none into numpy.linalg. The adjoint sweep makes none (the
    # per-step covariance form made about five a step)
    T = 20
    rng = np.random.default_rng(11)
    sys = rand_system(rng, n=3, m=2, p=2, T=T)
    cov = rand_profile(rng, sys)
    P, _ = riccati_backward(sys)
    numpy_calls = _linalg_calls(monkeypatch)
    kernel_calls.clear()
    sweep = kalman_forward(sys, cov)
    calls = kernel_calls.names()
    assert sorted(calls) == sorted(["cholesky"] * 3 + ["solve"] * (T + 1)), calls
    assert numpy_calls == []
    kernel_calls.clear()
    _adjoint(sys, P, sweep)
    assert kernel_calls == [] and numpy_calls == []


@pytest.mark.parametrize("kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER],
                         ids=["w2", "kl"])
def test_solves_decompose_only_where_a_value_is_read(monkeypatch, kernel_calls, kind):
    # a timing-free guard: once a solve has planned, its psd checks are
    # Cholesky certificates, so it runs no eigvalsh at all, and each oracle
    # pass runs one eigh per group (of the gradient for Wasserstein, of the
    # whitened gradient for KL). The hard benchmark family at d = 3, T = 4;
    # nothing here calls numpy.linalg
    d, T = 3, 4
    A = 0.95 * np.eye(d) + 0.3 * np.diag(np.ones(d - 1), 1)
    A *= 0.95 / spectral_radius(A)
    eye = np.eye(d)
    sys = SystemInstance.time_invariant(A, eye, eye, eye, eye, T=T)
    rng = np.random.default_rng(3)
    cov = rand_profile(rng, sys)
    P, _ = riccati_backward(sys)
    numpy_calls = _linalg_calls(monkeypatch)
    kernel_calls.clear()
    kalman_forward(sys, cov)
    _lqg_gradient(sys, P, cov)
    calls = kernel_calls.names()
    assert "eigvalsh" not in calls and "eigh" not in calls, calls
    plans = []
    inner = frank_wolfe._profile_plan

    def planning(balls):
        plans.append(inner(balls))
        kernel_calls.clear()
        return plans[-1]

    monkeypatch.setattr(frank_wolfe, "_profile_plan", planning)
    _, model = generate_instance(d, T, 0, kind, 1.0)
    numpy_calls.clear()  # generate_instance makes one qr
    _, trace = frank_wolfe.solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-4))
    assert trace.converged and len(trace.records) > 2
    calls = kernel_calls.names()
    assert "eigvalsh" not in calls
    assert calls.count("eigh") == len(trace.records) * len(plans[0].groups)
    assert numpy_calls == []


def _identity_system(n, p, T):
    eye = np.eye(n)
    return SystemInstance.time_invariant(eye, eye, np.eye(p, n), eye, eye, T=T)


def test_kalman_non_psd_start_names_the_innovation_covariance():
    sys = _identity_system(2, 2, 3)
    eye = np.eye(2)
    W, V = np.repeat(eye[None], 3, 0), np.repeat(eye[None], 3, 0)
    with pytest.raises(ConditioningError, match=r"innovation covariance at t=0"):
        kalman_forward(sys, CovarianceProfile(X0=-10.0 * eye, W=W, V=V))
    # Sigma_pred[2] = 0.6 I - 10 I makes E_2 = -8.4 I, two steps later
    W[1] = -10.0 * eye
    with pytest.raises(ConditioningError, match=r"innovation covariance at t=2"):
        kalman_forward(sys, CovarianceProfile(X0=eye, W=W, V=V))


@pytest.mark.parametrize("v, why", [(-1.0, "not positive definite"),
                                    (1e-12, r"numerically singular \(Cholesky pivot < 1e-5\)")],
                         ids=["indefinite", "singular"])
def test_failing_pd_checks_make_no_per_step_choleskys(kernel_calls, v, why):
    # a failing V check is its one batched Cholesky; a failing innovation
    # check is one for E, then the recheck of the steps before the failing
    # one: E and the filtered covariances of steps 0..2, so 4 in the sweep
    T = 5
    sys = _identity_system(2, 2, T)
    eye = np.eye(2)
    W, V = np.repeat(eye[None], T, 0), np.repeat(eye[None], T, 0)
    V[4] = v * eye
    kernel_calls.clear()
    with pytest.raises(ConditioningError, match=rf"^V\[4\] is {why}$"):
        kalman_forward(sys, CovarianceProfile(X0=eye, W=W, V=V))
    assert kernel_calls.names() == ["cholesky"]
    # Sigma_pred[3] = Sigma_filt[2] - 10 I makes E_3 about -8.4 I, and the
    # update I + Sigma_pred[3] J = E_3 is nonsingular, so the loop runs on
    W[2] = -10.0 * eye
    kernel_calls.clear()
    with pytest.raises(ConditioningError,
                       match=r"^innovation covariance at t=3 is not positive definite$"):
        kalman_forward(sys, CovarianceProfile(X0=eye, W=W, V=np.repeat(eye[None], T, 0)))
    assert len(kernel_calls.of("cholesky")) == 4


def test_kalman_exactly_singular_innovation_names_the_step():
    # with C = V = I, Sigma_pred[t] = -I makes I + S J = 0 exactly, so the
    # update's solve fails; the steps before it are checked first
    eye = np.eye(2)
    V = np.repeat(eye[None], 2, 0)
    with pytest.raises(ConditioningError, match=r"innovation covariance at t=0 is singular"):
        kalman_forward(_identity_system(2, 2, 2), CovarianceProfile(X0=-eye, W=V, V=V))
    # A = 0, so Sigma_pred[1] = W[0] = -I
    sys = SystemInstance.time_invariant(0.0 * eye, eye, eye, eye, eye, T=2)
    W = np.stack([-eye, eye])
    with pytest.raises(ConditioningError, match=r"innovation covariance at t=1 is singular"):
        kalman_forward(sys, CovarianceProfile(X0=eye, W=W, V=V))


def test_kalman_lost_psd_names_the_step():
    # E = 2 is pd, but the update diag(1, -1) - diag(1/2, 0) is not psd
    sys = _identity_system(2, 1, 2)
    cov = CovarianceProfile(
        X0=np.diag([1.0, -1.0]), W=np.repeat(np.eye(2)[None], 2, 0), V=np.ones((2, 1, 1))
    )
    with pytest.raises(ConditioningError, match=r"lost psd at t=0"):
        kalman_forward(sys, cov)


def test_kalman_ill_conditioned_update_at_a_later_step_matches_the_closed_form():
    # the prior of _spread_prior reaches step 1 exactly (A = 0, so
    # Sigma_pred[1] = W[0]) with V[1] = 1e-9 I; step 0 is well conditioned
    n, v = 3, 1e-9
    eye = np.eye(n)
    sys = SystemInstance.time_invariant(0.0 * eye, eye, eye, eye, eye, T=2)
    spread, lam, U = _spread_prior(n)
    cov = CovarianceProfile(X0=eye, W=np.stack([spread, eye]), V=np.stack([eye, v * eye]))
    filt, pred, L = kalman_forward(sys, cov)
    for t, want, vt in ((0, 0.5 * eye, 1.0), (1, _closed_form_update(lam, U, v), v)):
        assert np.linalg.eigvalsh(filt[t]).min() >= 0.0
        assert _rel_err(filt[t], want) <= 1e-6
        assert _rel_err(L[t], want / vt) <= 1e-6
    assert np.array_equal(pred, np.stack([eye, cov.W[0], cov.W[1]]))


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
