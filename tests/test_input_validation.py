"""Every public entry point that takes a matrix rejects malformed input with
InvalidInputError where the matrix enters the library."""

import numpy as np
import pytest

from robustlqg.divergences import (
    AmbiguityBall,
    CustomDivergence,
    DivergenceKind,
    MomentPair,
    register_moment_divergence,
)
from robustlqg.errors import InvalidInputError
from robustlqg.gradient import lqg_gradient
from robustlqg.lqg import CovarianceProfile, SystemInstance, kalman_forward, lqg_value
from robustlqg.matops import solve_discrete_lyapunov, sym_sqrt
from robustlqg.oracles import oracle_pass, solve_oracle
from robustlqg.stationary import StationarySystem, solve_dare, solve_filter_are

from conftest import rand_system

I2 = np.eye(2)


def _poisoned(bad):
    M = np.eye(2)
    M[0, 1] = bad
    return M


def _profile_call(X0=I2, W=None, V=None):
    sys = rand_system(np.random.default_rng(0), n=2, m=2, p=2, T=2)
    W = np.stack([I2, I2]) if W is None else W
    V = np.stack([I2, I2]) if V is None else V
    return lambda: lqg_value(sys, CovarianceProfile(X0=X0, W=W, V=V))


def _stationary():
    return StationarySystem(A=0.5 * I2, B=I2, C=I2, Q=I2, R=I2)


def _frobenius(candidate, nominal):
    return float(np.linalg.norm(candidate.second_moment - nominal.second_moment, "fro"))


def _custom_call(bad):
    name = f"non-finite-linearization-test-{bad}"
    register_moment_divergence(
        CustomDivergence(name=name, evaluate=_frobenius,
                         linearization=lambda G, nominal, rho, ref, delta: _poisoned(bad)),
        MomentPair.zero_mean(I2), 0.5,
    )
    ball = AmbiguityBall(kind=DivergenceKind.MOMENT_CUSTOM, nominal=MomentPair.zero_mean(I2),
                         radius=0.5, custom_name=name)
    return lambda: solve_oracle(ball, I2, I2)


ENTRY_POINTS = {
    "MomentPair": lambda M: lambda: MomentPair.zero_mean(M),
    "CovarianceProfile.X0": lambda M: _profile_call(X0=M),
    "CovarianceProfile.W": lambda M: _profile_call(W=np.stack([I2, M])),
    "CovarianceProfile.V": lambda M: _profile_call(V=np.stack([M, I2])),
    "solve_filter_are.Sigma_w": lambda M: lambda: solve_filter_are(_stationary(), M, I2),
    "solve_filter_are.Sigma_v": lambda M: lambda: solve_filter_are(_stationary(), I2, M),
    "solve_discrete_lyapunov.Q": lambda M: lambda: solve_discrete_lyapunov(0.5 * I2, M),
    "sym_sqrt": lambda M: lambda: sym_sqrt(M),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", [*ENTRY_POINTS, "custom linearization"])
def test_entry_points_reject_non_finite_matrices(entry, bad):
    if entry == "custom linearization":
        call = _custom_call(bad)
    else:
        call = ENTRY_POINTS[entry](_poisoned(bad))
    with pytest.raises(InvalidInputError):
        call()


@pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2, 3)], ids=["wrong-size", "non-square"])
@pytest.mark.parametrize("name", ["W", "V"])
def test_misshaped_noise_stacks_raise_typed_errors(name, shape):
    stack = np.ones(shape) + np.eye(shape[1], shape[2])
    with pytest.raises(InvalidInputError):
        _profile_call(**{name: stack})()


@pytest.mark.parametrize("which", ["grads", "refs", "floors"])
@pytest.mark.parametrize("change", [-1, 1], ids=["shorter", "longer"])
def test_oracle_pass_rejects_length_mismatch(which, change):
    ball = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(I2),
                         radius=0.5)
    args = {"balls": [ball] * 3, "grads": [I2] * 3, "refs": [I2] * 3, "floors": [0.0] * 3}
    args[which] = args[which][:2] if change < 0 else args[which] + args[which][:1]
    with pytest.raises(InvalidInputError):
        oracle_pass(**args)


def _overflowing(call):
    # finite inputs whose sweep overflows: A = 1e160 I squares past the float range
    sys = SystemInstance.time_invariant(1e160 * I2, I2, I2, I2, I2, T=3)
    cov = CovarianceProfile(X0=I2, W=np.stack([I2] * 3), V=np.stack([I2] * 3))
    return lambda: call(sys, cov)


@pytest.mark.parametrize("call", [
    _overflowing(lqg_value),
    _overflowing(lqg_gradient),
    _overflowing(kalman_forward),
    lambda: solve_dare(StationarySystem(A=1e160 * I2, B=I2, C=I2, Q=I2, R=I2)),
    lambda: solve_discrete_lyapunov(0.9 * I2, 1e308 * I2),
], ids=["lqg_value", "lqg_gradient", "kalman_forward", "solve_dare", "lyapunov"])
def test_overflowing_sweeps_raise_typed_errors(call):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError):
        call()
