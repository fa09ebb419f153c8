"""Every public entry point that takes a matrix rejects malformed input with
InvalidInputError where the matrix enters the library, and every one that
takes ambiguity balls rejects a nonzero nominal mean. Instances off the
paper's path (d = 1, rho = 0, near-unstable dynamics) solve for every kind."""

import re
from dataclasses import replace

import numpy as np
import pytest

from robustlqg import lqg, stationary
from robustlqg.divergences import (
    AmbiguityBall,
    CustomDivergence,
    DivergenceKind,
    MomentPair,
    entropic_ot,
    membership,
)
from robustlqg.errors import ConditioningError, InvalidInputError
from robustlqg.experiments import policy_worst_case_cost
from robustlqg.frank_wolfe import BallProfile, FwConfig, solve
from robustlqg.gradient import GradientProfile, lqg_gradient
from robustlqg.instances import generate_instance, instance_rng, random_covariance
from robustlqg.lqg import CovarianceProfile, SystemInstance, kalman_forward, lqg_value
from robustlqg.matops import solve_discrete_lyapunov, spectral_radius, sym_sqrt
from robustlqg.oracles import (
    fisher_oracle, kl_oracle, oracle_pass, solve_oracle, wasserstein_oracle,
)
from robustlqg.stationary import StationarySystem, solve_dare, solve_filter_are, solve_stationary_fw

from conftest import counting, rand_system

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


_FROBENIUS = CustomDivergence("frobenius", _frobenius, nominal=MomentPair.zero_mean(I2), rho=0.5)


def _custom_call(bad, output=None):
    output = _poisoned(bad) if output is None else output
    handle = CustomDivergence(name=f"linearization-test-{bad}", evaluate=_frobenius,
                              linearization=lambda G, nominal, rho, ref: output,
                              nominal=MomentPair.zero_mean(I2), rho=0.5)
    ball = AmbiguityBall(kind=DivergenceKind.MOMENT_CUSTOM, nominal=MomentPair.zero_mean(I2),
                         radius=0.5, custom=handle)
    return lambda: solve_oracle(ball, I2, I2)


def _w2_ball():
    return AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(I2),
                         radius=0.5)


# the oracles' public wrappers (and the fixed-policy worst case, one oracle
# pass) check gradients and references; the Frank-Wolfe loop, which builds
# its own, does not check them again
ORACLE_ENTRY_POINTS = {
    "oracle_pass.grads": lambda M: lambda: oracle_pass([_w2_ball()] * 2, [I2, M], [I2, I2]),
    "oracle_pass.refs": lambda M: lambda: oracle_pass([_w2_ball()] * 2, [I2, I2], [I2, M]),
    "solve_oracle.Gamma": lambda M: lambda: solve_oracle(_w2_ball(), M, I2),
    "solve_oracle.sigma_ref": lambda M: lambda: solve_oracle(_w2_ball(), I2, M),
    "kl_oracle.Gamma": lambda M: lambda: kl_oracle(M, I2, 0.5, I2),
    "kl_oracle.sigma_ref": lambda M: lambda: kl_oracle(I2, I2, 0.5, M),
    "policy_worst_case_cost.coeffs": lambda M: lambda: policy_worst_case_cost(
        GradientProfile(dX0=M, dW=np.stack([I2, I2]), dV=np.stack([I2, I2])),
        BallProfile(x0=_w2_ball(), w=(_w2_ball(),) * 2, v=(_w2_ball(),) * 2),
    ),
}

ENTRY_POINTS = {
    **ORACLE_ENTRY_POINTS,
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


def test_misshaped_custom_linearization_output_raises():
    # the output of a custom linearization is input from outside: a 3x3
    # target for a 2x2 ball is rejected where it enters the pass
    with pytest.raises(InvalidInputError, match="must have shape"):
        _custom_call("misshaped", np.eye(3))()


@pytest.mark.parametrize("shape", [(3, 3), (2, 3)], ids=["wrong-size", "non-square"])
@pytest.mark.parametrize("entry", ORACLE_ENTRY_POINTS)
def test_oracle_entry_points_reject_misshaped_blocks(entry, shape):
    with pytest.raises(InvalidInputError):
        ORACLE_ENTRY_POINTS[entry](np.ones(shape) + np.eye(*shape))()


@pytest.mark.parametrize("nominal", [1.0, np.ones(2)], ids=["scalar", "vector"])
def test_per_kind_oracles_reject_a_non_matrix_nominal(nominal):
    # the nominal enters through MomentPair.zero_mean, which must raise the
    # typed error, not an IndexError, for a 0-d array
    for oracle in (wasserstein_oracle, kl_oracle, fisher_oracle):
        with pytest.raises(InvalidInputError, match="must be square"):
            oracle(I2, nominal, 0.5, I2)


_KL = DivergenceKind.KULLBACK_LEIBLER


@pytest.mark.parametrize("fields, message", [
    ({"kind": "kl"}, "kind must be a DivergenceKind, got 'kl'"),
    ({"radius": "0.5"}, "radius must be finite and nonnegative"),
    ({"radius": None}, "radius must be finite and nonnegative"),
    ({"radius": True}, "radius must be finite and nonnegative"),
    ({"eps": True}, "eps must be a finite number, got True"),
    ({"eps": "0.1"}, "eps must be a finite number, got '0.1'"),
    ({"kind": DivergenceKind.ENTROPIC_OT, "eps": True}, "entropic OT needs a finite eps > 0"),
    ({"kind": DivergenceKind.MOMENT_CUSTOM}, "a custom ball needs a CustomDivergence, got None"),
    ({"kind": DivergenceKind.MOMENT_CUSTOM, "custom": "frobenius"},
     "a custom ball needs a CustomDivergence, got 'frobenius'"),
    ({"custom": _FROBENIUS}, "a kl ball takes no custom divergence"),
], ids=["kind_string", "radius_string", "radius_none", "radius_bool", "eps_bool", "eps_string",
        "entropic_eps_bool", "custom_without_handle", "custom_handle_by_name",
        "builtin_with_handle"])
def test_ambiguity_ball_rejects_mistyped_fields(fields, message):
    # a string kind would skip the KL pd check and fail later, in every pass,
    # with an AttributeError; a string or None radius would raise a bare
    # TypeError, and True would count as 1. A custom ball without its
    # handle, or a built-in one with a handle it would ignore, fails here
    # and not in the first pass
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        AmbiguityBall(**{"kind": _KL, "nominal": MomentPair.zero_mean(I2), "radius": 0.5,
                         **fields})


def test_a_string_kind_fails_where_the_balls_are_built():
    _, model = generate_instance(2, 2, 0, kind="kl")
    with pytest.raises(InvalidInputError, match="kind must be a DivergenceKind"):
        model.ball_profile()


@pytest.mark.parametrize("kind", [DivergenceKind.WASSERSTEIN2, _KL, DivergenceKind.FISHER],
                         ids=["w2", "kl", "fisher"])
def test_ambiguity_ball_rejects_a_nominal_that_is_not_a_moment_pair(kind):
    # a bare matrix used to build a W2 ball that raised AttributeError in its
    # first membership or oracle call, and made KL and Fisher raise it here
    with pytest.raises(InvalidInputError, match="ball nominal must be a MomentPair"):
        AmbiguityBall(kind=kind, nominal=I2, radius=0.1)


@pytest.mark.parametrize("which", ["grads", "refs"])
@pytest.mark.parametrize("change", [-1, 1], ids=["shorter", "longer"])
def test_oracle_pass_rejects_length_mismatch(which, change):
    ball = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(I2),
                         radius=0.5)
    args = {"balls": [ball] * 3, "grads": [I2] * 3, "refs": [I2] * 3}
    args[which] = args[which][:2] if change < 0 else args[which] + args[which][:1]
    with pytest.raises(InvalidInputError):
        oracle_pass(**args)


@pytest.mark.parametrize("lam_floor", [np.nan, np.inf, -1e-3, "0.5"],
                         ids=["nan", "inf", "negative", "string"])
def test_solve_oracle_rejects_a_bad_lam_floor(lam_floor):
    # a nan floor would switch the Wasserstein floor check off
    with pytest.raises(InvalidInputError, match="lam_floor must be a finite number >= 0"):
        solve_oracle(_w2_ball(), I2, I2, lam_floor)


@pytest.mark.parametrize("call, message", [
    (lambda: generate_instance(2.5, 2, 0), "d and T must be integers >= 1"),
    (lambda: generate_instance(2, 0, 0), "d and T must be integers >= 1"),
    (lambda: generate_instance(2, 2, 2**128), "seed must be an integer in"),
    (lambda: generate_instance(2, 2, 1.0), "seed must be an integer in"),
    (lambda: instance_rng(2**128), "seed must be an integer in"),
    (lambda: instance_rng(-1), "seed must be an integer in"),
    (lambda: generate_instance(2, 2, 0, rho=np.nan), "rho must be a finite number >= 0"),
    (lambda: generate_instance(2, 2, 0, rho=-1.0), "rho must be a finite number >= 0"),
    (lambda: generate_instance(2, 2, 0, rho=np.inf), "rho must be a finite number >= 0"),
    (lambda: generate_instance(2, 2, 0, rho=True), "rho must be a finite number >= 0"),
    (lambda: generate_instance(2, 2, 0, rho="x"), "rho must be a finite number >= 0"),
], ids=["d_float", "T_zero", "seed_too_large", "seed_float", "rng_too_large", "rng_negative",
        "rho_nan", "rho_negative", "rho_inf", "rho_bool", "rho_string"])
def test_instance_generation_rejects_bad_sizes_and_seeds(call, message):
    # the seed keys a 128-bit Philox generator, so 2**128 - 1 is the largest;
    # a bad rho would otherwise fail only when the balls are built, and True
    # would become radius 1.0
    with pytest.raises(InvalidInputError, match=message):
        call()
    assert np.isfinite(instance_rng(2**128 - 1).standard_normal())


@pytest.mark.parametrize("T", ["2", 2.0, True, 0], ids=["string", "float", "bool", "zero"])
def test_system_instance_takes_an_integer_horizon(T):
    # "2" used to raise a bare TypeError, and 2.0 and True built a system
    # whose lqg_value raised one
    steps = max(int(T), 1)
    with pytest.raises(InvalidInputError, match="horizon T must be an integer >= 1"):
        SystemInstance(T=T, A=np.stack([I2] * steps), B=np.stack([I2] * steps),
                       C=np.stack([I2] * steps), Q=np.stack([I2] * (steps + 1)),
                       R=np.stack([I2] * steps))


@pytest.mark.parametrize("kwargs, message", [
    ({"T": -1}, "horizon T must be an integer >= 1"),
    ({"T": 2, "Qf": np.eye(3)}, r"Qf must have Q's shape \(2, 2\), got \(3, 3\)"),
], ids=["negative-T", "Qf-shape"])
def test_time_invariant_checks_its_horizon_and_terminal_cost(kwargs, message):
    # both used to raise a bare ValueError, from np.repeat and np.concatenate
    with pytest.raises(InvalidInputError, match=message):
        SystemInstance.time_invariant(I2, I2, I2, I2, I2, **kwargs)


def _finite_horizon():
    """A W2 problem at n = p = 2, T = 2: (sys, nominal model, ball profile)."""
    sys, model = generate_instance(2, 2, 0, DivergenceKind.WASSERSTEIN2, 0.5)
    return sys, model, model.ball_profile()


def _nominal_x0(sys, model, balls):
    return solve(sys, BallProfile(balls.x0.nominal, balls.w, balls.v))


# each of these used to raise a bare AttributeError
WRONG_TYPES = {
    "BallProfile.x0": _nominal_x0,
    "solve.balls": lambda sys, model, balls: solve(sys, model),
    "solve.cfg": lambda sys, model, balls: solve(sys, balls, cfg={"gap_tol": 1e-3}),
    "solve_stationary_fw.ball_w": lambda *_: solve_stationary_fw(_stationary(), I2, _w2_ball()),
    "solve_stationary_fw.cfg": lambda *_: solve_stationary_fw(_stationary(), _w2_ball(),
                                                              _w2_ball(), None),
    "oracle_pass.balls": lambda *_: oracle_pass([I2], [I2], [I2]),
}


@pytest.mark.parametrize("entry", WRONG_TYPES)
def test_solve_entry_points_reject_wrong_argument_types(entry):
    with pytest.raises(InvalidInputError):
        WRONG_TYPES[entry](*_finite_horizon())


def test_a_ball_profile_may_hold_lists_of_balls():
    sys, _, balls = _finite_horizon()
    listed = BallProfile(balls.x0, list(balls.w), list(balls.v))
    assert solve(sys, listed, FwConfig(gap_tol=1e-6))[1].converged


# each of these used to raise a bare ValueError, TypeError or AttributeError;
# an array numpy cannot convert to floats fails where it enters the library
MALFORMED_CALLS = {
    "MomentPair.from_cov": lambda: MomentPair.from_cov(np.zeros(3), I2),
    "MomentPair.mean": lambda: MomentPair("ab", I2),
    "CovarianceProfile.from_blocks": lambda: CovarianceProfile.from_blocks([I2] * 4, 2),
    "entropic_ot.eps": lambda: entropic_ot(MomentPair.zero_mean(I2), MomentPair.zero_mean(I2),
                                           "1"),
    "kalman_forward.cov": lambda: kalman_forward(_finite_horizon()[0], None),
    "lqg_value.cov": lambda: lqg_value(_finite_horizon()[0], I2),
    "membership.candidate": lambda: membership(_w2_ball(), I2),
    "AmbiguityBall.divergence": lambda: _w2_ball().divergence(I2),
    "MomentPair.zero_mean": lambda: MomentPair.zero_mean([["a", "b"], ["c", "d"]]),
    "time_invariant.A": lambda: SystemInstance.time_invariant("ab", I2, I2, I2, I2, T=2),
    "StationarySystem.A": lambda: StationarySystem(A="ab", B=I2, C=I2, Q=I2, R=I2),
}


@pytest.mark.parametrize("entry", MALFORMED_CALLS)
def test_public_calls_reject_malformed_arguments(entry):
    with pytest.raises(InvalidInputError):
        MALFORMED_CALLS[entry]()


# each of these used to raise a bare AttributeError: nothing checked that the
# system argument is a SystemInstance or a StationarySystem
WRONG_SYSTEMS = {
    "riccati_backward": lambda cov, balls: lqg.riccati_backward(None),
    "kalman_forward": lambda cov, balls: kalman_forward(None, cov),
    "lqg_value": lambda cov, balls: lqg_value(None, cov),
    "lqg_gradient": lambda cov, balls: lqg_gradient(None, cov),
    "solve": lambda cov, balls: solve(None, balls),
    "solve_dare": lambda cov, balls: solve_dare(None),
    "stationary_cost": lambda cov, balls: stationary.stationary_cost(None, I2, I2),
    "stationary_gradient": lambda cov, balls: stationary.stationary_gradient(None, I2, I2),
    "solve_filter_are": lambda cov, balls: solve_filter_are(None, I2, I2),
    "solve_stationary_fw": lambda cov, balls: solve_stationary_fw(None, _w2_ball(), _w2_ball()),
}


@pytest.mark.parametrize("entry", WRONG_SYSTEMS)
def test_calls_reject_a_system_of_the_wrong_type(entry):
    _, model, balls = _finite_horizon()
    with pytest.raises(InvalidInputError,
                       match=r"must be a (SystemInstance|StationarySystem), got NoneType"):
        WRONG_SYSTEMS[entry](model.nominal_profile(), balls)


@pytest.mark.parametrize("call, message", [
    (lambda: membership(_w2_ball(), MomentPair.zero_mean(I2), tol="x"),
     "membership tolerance must be a finite number"),
    (lambda: membership(_w2_ball(), MomentPair.zero_mean(I2), tol=np.nan),
     "membership tolerance must be a finite number"),
    (lambda: random_covariance(2.5, instance_rng(0)), "d must be an integer >= 1"),
    (lambda: random_covariance(0, instance_rng(0)), "d must be an integer >= 1"),
    (lambda: random_covariance(2, None), "rng must be a numpy Generator"),
    (lambda: oracle_pass(_w2_ball(), [I2], [I2]), "oracle_pass needs a sequence of balls"),
], ids=["membership.tol_string", "membership.tol_nan", "random_covariance.d_float",
        "random_covariance.d_zero", "random_covariance.rng_none", "oracle_pass.bare_ball"])
def test_calls_reject_malformed_scalars_and_containers(call, message):
    # tol "x" and d 2.5 raised a bare TypeError, rng None and a bare ball a
    # bare AttributeError or TypeError; tol nan returned False, and d 0 an
    # empty 0 x 0 covariance
    with pytest.raises(InvalidInputError, match=message):
        call()


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


def _shifted(ball, mean):
    """ball with its nominal moved to mean, its covariance unchanged."""
    mean = np.asarray(mean, dtype=float)
    return replace(ball, nominal=MomentPair(mean, ball.nominal.cov + np.outer(mean, mean)))


def _mean_instance():
    """d = 3, T = 4, rho = 0.5, seed 0, with the W2 x0 ball's nominal mean at
    (5, 0, 0); solving it as if zero-mean gives the zero-mean objective."""
    sys, model = generate_instance(3, 4, seed=0, rho=0.5)
    balls = model.ball_profile()
    return sys, replace(balls, x0=_shifted(balls.x0, [5.0, 0.0, 0.0]))


I3 = np.eye(3)

# every path that takes ambiguity balls: the oracles work with zero-mean
# Gaussians, so a nonzero nominal mean is rejected before any evaluation
MEAN_ENTRY_POINTS = {
    "solve": lambda: solve(*_mean_instance()),
    "solve_stationary_fw": lambda: solve_stationary_fw(
        _stationary(), _shifted(_w2_ball(), [0.0, 1.0]), _w2_ball()
    ),
    "oracle_pass": lambda: oracle_pass([_w2_ball(), _shifted(_w2_ball(), [1.0, 0.0])],
                                       [I2, I2], [I2, I2]),
    "solve_oracle": lambda: solve_oracle(_shifted(_w2_ball(), [0.0, -1e-3]), I2, I2),
    "policy_worst_case_cost": lambda: policy_worst_case_cost(
        GradientProfile(dX0=I3, dW=np.stack([I3] * 4), dV=np.stack([I3] * 4)),
        _mean_instance()[1],
    ),
}


@pytest.mark.parametrize("entry", MEAN_ENTRY_POINTS)
def test_entry_points_reject_a_nonzero_nominal_mean(monkeypatch, entry):
    sweeps = counting(monkeypatch, lqg, "kalman_forward")
    riccati = counting(monkeypatch, lqg, "riccati_backward")
    dares = counting(monkeypatch, stationary, "solve_dare")
    filters = counting(monkeypatch, stationary, "_stationary_cost")
    with pytest.raises(InvalidInputError, match="zero nominal mean"):
        MEAN_ENTRY_POINTS[entry]()
    assert sweeps == riccati == dares == filters == []


def _near_unstable_system(d, T):
    """A = 0.95 I + 0.3 superdiag rescaled to spectral radius 0.999; B=C=Q=R=I."""
    A = 0.95 * np.eye(d) + 0.3 * np.diag(np.ones(d - 1), 1)
    A *= 0.999 / spectral_radius(A)
    eye = np.eye(d)
    return SystemInstance.time_invariant(A, eye, eye, eye, eye, T=T)


@pytest.mark.parametrize("kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER,
                                  DivergenceKind.FISHER], ids=["w2", "kl", "fisher"])
@pytest.mark.parametrize("case", ["d1", "rho0", "near_unstable"])
def test_off_path_instances_solve_for_every_kind(kind, case):
    # off the paper's path: scalar blocks, a zero radius, and dynamics at
    # spectral radius 0.999. Each solve converges with every final block in
    # its ball, and at rho = 0 every block is its nominal
    d, rho = (1, 0.1) if case == "d1" else (3, 0.0 if case == "rho0" else 0.1)
    sys, model = generate_instance(d, 5, 0, kind, rho)
    if case == "near_unstable":
        sys = _near_unstable_system(d, 5)
    balls = model.ball_profile()
    final, trace = solve(sys, balls)
    assert trace.converged
    for ball, block in zip(balls.blocks(), final.blocks()):
        assert membership(ball, MomentPair.zero_mean(block), 1e-8)
        if rho == 0.0:
            np.testing.assert_array_equal(block, ball.nominal.cov)


@pytest.mark.parametrize("kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER,
                                  DivergenceKind.FISHER], ids=["w2", "kl", "fisher"])
def test_near_singular_observation_noise(monkeypatch, kind):
    # every V[t] = 1e-9 I still solves, and its first full step is already
    # certified by the first pass's upper bound: one record, a bound stop;
    # at 1e-11 I the first Kalman sweep raises a typed ConditioningError,
    # before any Frank-Wolfe iteration
    from robustlqg import frank_wolfe

    sys, model = generate_instance(3, 5, 0, kind, 0.1)
    tiny = replace(model, V=np.stack([1e-9 * np.eye(3)] * 5))
    _, trace = solve(sys, tiny.ball_profile())
    assert trace.converged and trace.stop == "bound" and len(trace.records) == 1
    passes = counting(monkeypatch, frank_wolfe, "_oracle_pass")
    singular = replace(model, V=np.stack([1e-11 * np.eye(3)] * 5))
    with pytest.raises(ConditioningError, match=r"V\[0\] is numerically singular"):
        solve(sys, singular.ball_profile())
    assert passes == []
