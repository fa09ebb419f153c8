import time

import numpy as np
import pytest

from robustlqg.errors import InvalidInputError
from robustlqg.gradient import lqg_gradient
from robustlqg.lqg import CovarianceProfile, SystemInstance, lqg_value

from conftest import rand_profile, rand_spd, rand_system, scalar_unit_profile, scalar_unit_system
from reference import fd_gradient


def _max_rel_err(exact, fd):
    worst = 0.0
    for a, b in zip(exact.blocks(), fd.blocks()):
        denom = 1.0 + np.abs(b)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def test_value_matches_lqg_value():
    rng = np.random.default_rng(0)
    sys = rand_system(rng, T=4)
    cov = rand_profile(rng, sys)
    value, _ = lqg_gradient(sys, cov)
    assert value == pytest.approx(lqg_value(sys, cov).cost, rel=1e-12)


def test_no_observation_collapse():
    # with B = 0 and C = 0 the cost is linear in the noise through the
    # uncontrolled Riccati matrices: dW_{t-1} = P_t exactly, dV_t = 0
    rng = np.random.default_rng(1)
    n, p, T = 3, 2, 4
    sys = SystemInstance(
        T=T,
        A=0.7 * rng.standard_normal((T, n, n)),
        B=np.zeros((T, n, 1)),
        C=np.zeros((T, p, n)),
        Q=np.stack([rand_spd(n, rng) for _ in range(T + 1)]),
        R=np.ones((T, 1, 1)),
    )
    cov = CovarianceProfile(
        X0=rand_spd(n, rng),
        W=np.stack([rand_spd(n, rng) for _ in range(T)]),
        V=np.repeat(np.eye(p)[None], T, 0),
    )
    from robustlqg.lqg import riccati_backward

    P, _ = riccati_backward(sys)
    _, grad = lqg_gradient(sys, cov)
    for t in range(T):
        np.testing.assert_allclose(grad.dW[t], P[t + 1], atol=1e-10)
        np.testing.assert_allclose(grad.dV[t], 0.0, atol=1e-12)
    np.testing.assert_allclose(grad.dX0, P[0], atol=1e-10)


def test_scalar_instance_matches_fd():
    sys = scalar_unit_system()
    cov = scalar_unit_profile()
    _, grad = lqg_gradient(sys, cov)
    fd = fd_gradient(sys, cov, step=1e-5)
    assert _max_rel_err(grad, fd) <= 1e-6


def test_random_instance_matches_fd():
    rng = np.random.default_rng(2)
    sys = rand_system(rng, n=4, m=2, p=3, T=6)
    cov = rand_profile(rng, sys)
    _, grad = lqg_gradient(sys, cov)
    fd = fd_gradient(sys, cov, step=1e-5)
    assert _max_rel_err(grad, fd) <= 1e-5


@pytest.mark.parametrize("p", [1, 2])
def test_rectangular_instance_matches_fd(p):
    # n = 3 states, m = 2 inputs, p < n outputs
    rng = np.random.default_rng(10 + p)
    sys = rand_system(rng, n=3, m=2, p=p, T=5)
    cov = rand_profile(rng, sys)
    _, grad = lqg_gradient(sys, cov)
    assert grad.dV.shape == (5, p, p)
    assert _max_rel_err(grad, fd_gradient(sys, cov, step=1e-5)) <= 1e-5


def test_gradient_blocks_psd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        sys = rand_system(rng, n=3, m=2, p=2, T=4)
        cov = rand_profile(rng, sys)
        _, grad = lqg_gradient(sys, cov)
        for blk in grad.blocks():
            assert np.linalg.eigvalsh(blk).min() >= -1e-8


def test_gradient_vanishes_in_V_when_C_zero():
    rng = np.random.default_rng(4)
    n, p, T = 2, 2, 3
    sys = SystemInstance(
        T=T,
        A=0.6 * rng.standard_normal((T, n, n)),
        B=rng.standard_normal((T, n, 1)),
        C=np.zeros((T, p, n)),
        Q=np.stack([rand_spd(n, rng) for _ in range(T + 1)]),
        R=np.ones((T, 1, 1)),
    )
    cov = CovarianceProfile(
        X0=rand_spd(n, rng),
        W=np.stack([rand_spd(n, rng) for _ in range(T)]),
        V=np.repeat(np.eye(p)[None], T, 0),
    )
    _, grad = lqg_gradient(sys, cov)
    assert np.abs(grad.dV).max() <= 1e-12


def test_first_order_expansion_ratio():
    # |f(cov + eps D) - f(cov) - eps <grad, D>| = O(eps^2)
    rng = np.random.default_rng(5)
    sys = rand_system(rng, n=3, m=2, p=2, T=3)
    cov = rand_profile(rng, sys, lo=1.0, hi=2.0)
    value, grad = lqg_gradient(sys, cov)

    def perturbation():
        return CovarianceProfile(
            X0=0.5 * rand_spd(sys.n, rng, -1.0, 1.0),
            W=np.stack([0.5 * rand_spd(sys.n, rng, -1.0, 1.0) for _ in range(sys.T)]),
            V=np.stack([0.5 * rand_spd(sys.p, rng, -1.0, 1.0) for _ in range(sys.T)]),
        )

    for _ in range(5):
        delta = perturbation()
        lin = grad.inner(delta)
        errs = []
        for eps in (1e-3, 5e-4):
            moved = CovarianceProfile(
                X0=cov.X0 + eps * delta.X0, W=cov.W + eps * delta.W, V=cov.V + eps * delta.V
            )
            errs.append(abs(lqg_value(sys, moved).cost - value - eps * lin))
        # halving eps divides the remainder by ~4
        assert errs[1] <= errs[0] * 0.35 + 1e-14


def test_fd_quadratic_convergence():
    rng = np.random.default_rng(6)
    sys = rand_system(rng, n=2, m=1, p=1, T=2)
    cov = rand_profile(rng, sys, lo=1.0, hi=2.0)
    _, exact = lqg_gradient(sys, cov)
    err_h = _max_rel_err(exact, fd_gradient(sys, cov, step=2e-4))
    err_h2 = _max_rel_err(exact, fd_gradient(sys, cov, step=1e-4))
    assert err_h2 <= err_h * 0.4


def test_fd_rejects_bad_steps():
    sys = scalar_unit_system()
    cov = CovarianceProfile(X0=np.eye(1), W=np.ones((1, 1, 1)), V=1e-6 * np.ones((1, 1, 1)))
    with pytest.raises(InvalidInputError):
        fd_gradient(sys, cov, step=0.0)
    with pytest.raises(InvalidInputError):
        fd_gradient(sys, cov, step=0.5)  # pushes V negative


def test_gradient_runtime_within_budget():
    # gradient costs at most ~10x a value evaluation
    rng = np.random.default_rng(7)
    sys = rand_system(rng, n=6, m=3, p=3, T=20)
    cov = rand_profile(rng, sys)
    lqg_value(sys, cov)  # warm up
    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        lqg_value(sys, cov)
    t_value = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        lqg_gradient(sys, cov)
    t_grad = time.perf_counter() - t0
    assert t_grad <= 10.0 * t_value


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 1), (1, 1, 1)])
def test_evaluations_given_the_riccati_sweep_are_bit_identical(shape):
    # the solve path runs riccati_backward once and reuses P; the cost must
    # not move by a single bit
    from robustlqg.gradient import _lqg_gradient
    from robustlqg.lqg import _lqg_cost, kalman_forward, riccati_backward

    n, m, p = shape
    rng = np.random.default_rng(n * 100 + m * 10 + p)
    sys = rand_system(rng, n=n, m=m, p=p, T=5)
    P, _ = riccati_backward(sys)
    for _ in range(3):
        cov = rand_profile(rng, sys)
        cost = lqg_value(sys, cov).cost
        value, grad = _lqg_gradient(sys, P, cov)
        assert value == cost
        filt, pred, _ = kalman_forward(sys, cov)
        assert _lqg_cost(sys, P, filt, pred) == cost
        public_value, public_grad = lqg_gradient(sys, cov)
        assert public_value == cost
        for a, b in zip(grad.blocks(), public_grad.blocks()):
            assert np.array_equal(a, b)
