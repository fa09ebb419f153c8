"""The psd and pd checks that one batched Cholesky certifies are never looser
than their eigenvalue rules: a block inside a rule's tolerance passes, with
no eigenvalues computed where the Cholesky certifies it, and a block outside
fails through the eigenvalues with the rule's own message. matops._first_below,
which makes every such check but the gradients', gives what the plain
eigenvalue rule gives."""

import numpy as np
import pytest

from robustlqg import oracles
from robustlqg.divergences import AmbiguityBall, DivergenceKind, MomentPair
from robustlqg.errors import InvalidInputError, OracleError
from robustlqg.frank_wolfe import NominalModel
from robustlqg.instances import generate_instance
from robustlqg.lqg import SystemInstance
from robustlqg.matops import _cholesky_certifies, _first_below, symmetrize
from robustlqg.oracles import _check_gradients, oracle_pass, solve_oracle

from conftest import rand_spd

KL, FISHER, W2 = (DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER,
                  DivergenceKind.WASSERSTEIN2)


def test_cholesky_certifies_only_a_shifted_pd_stack():
    S = np.stack([np.diag([1.0, 1e-3]), np.diag([2.0, -1e-3])])
    assert not _cholesky_certifies(S)
    assert _cholesky_certifies(S, 2e-3)
    assert _cholesky_certifies(S, np.array([0.0, 2e-3]))
    assert not _cholesky_certifies(S, np.array([-2e-3, 2e-3]))
    # Cholesky lets nan through; a non-finite factor certifies nothing
    assert not _cholesky_certifies(np.array([[np.nan]]))
    assert not _cholesky_certifies(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    assert not _cholesky_certifies(np.array([[np.inf]]))


def _eigenvalue_rule(S, floor, strict):
    """The first block of S breaking lam_min >= floor (> if strict) and its
    lam_min, from numpy's eigenvalues of every block; None if none does."""
    lam = np.linalg.eigvalsh(S)[:, 0]
    bad = np.flatnonzero(~(lam > floor if strict else lam >= floor))
    return (int(bad[0]), float(lam[bad[0]])) if bad.size else None


def _with_lam_min(rng, d, lam_min):
    """A random symmetric d x d block with smallest eigenvalue lam_min and the
    others uniform on [1, 2]."""
    Qm, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return symmetrize((Qm * np.append(lam_min, rng.uniform(1.0, 2.0, d - 1))) @ Qm.T)


@pytest.mark.parametrize("strict", [False, True], ids=["closed", "strict"])
@pytest.mark.parametrize("per_block", [False, True], ids=["scalar", "per_block"])
def test_first_below_matches_the_eigenvalue_rule(kernel_calls, strict, per_block):
    # 120 stacks of d = 1..8 and 1..30 blocks. Each block's lam_min lies at
    # floor +- u |floor| (u uniform on [0.1, 1], so within 2x of the floor on
    # either side; 1e-6 in place of |floor| for a zero floor), and breaks the
    # rule with probability 0, 0.1 or 0.5 per stack. Some blocks sit exactly
    # on the floor (diagonal), and some stacks of d <= 2 hold a nan block,
    # whose nan eigenvalues break every rule (from d = 3 on, LAPACK raises
    # LinAlgError on a nan block, for numpy as for _first_below)
    rng = np.random.default_rng(40)
    seen = dict.fromkeys(["passed", "several_bad", "on_floor", "nan"], 0)
    choices = np.array([1e-3, -1e-3, 1e-8, -1e-8, 0.0])
    for _ in range(120):
        nan = rng.random() < 0.2
        d, k = int(rng.integers(1, 3 if nan else 9)), int(rng.integers(1, 31))
        floor = rng.choice(choices, k) if per_block else rng.choice(choices)
        floors = np.broadcast_to(floor, k)
        below = rng.random(k) < rng.choice([0.0, 0.1, 0.5])
        u = rng.uniform(0.1, 1.0, k)
        lam_min = floors + np.where(below, -u, u) * np.where(floors == 0.0, 1e-6, abs(floors))
        S = np.stack([_with_lam_min(rng, d, lam) for lam in lam_min])
        on_floor = rng.random() < 0.2
        if on_floor:
            i = int(rng.integers(k))
            S[i] = np.diag(np.append(floors[i], rng.uniform(1.0, 2.0, d - 1)))
        if nan:
            S[int(rng.integers(k))] = np.nan
        want = _eigenvalue_rule(S, floor, strict)
        kernel_calls.clear()
        assert repr(_first_below(S, floor, strict)) == repr(want)
        assert len(kernel_calls.of("cholesky")) == 1 and len(kernel_calls.of("eigvalsh")) <= 1
        if want is None and not on_floor:
            assert kernel_calls.of("eigvalsh") == []
            seen["passed"] += 1
        seen["several_bad"] += int(np.count_nonzero(below) > 1)
        seen["on_floor"] += int(on_floor)
        seen["nan"] += int(want is not None and np.isnan(want[1]))
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("kind", [KL, FISHER, W2], ids=["kl", "fisher", "w2"])
@pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
def test_gradient_psd_check_is_never_looser(kernel_calls, kind, factor, fails):
    # the rule: lam_min >= -1e-8 (1 + max |eig|) = -2e-8 for diag(1, -x)
    G = np.diag([1.0, -factor * 2e-8])
    ball = AmbiguityBall(kind, MomentPair.zero_mean(np.eye(2)), 0.5)
    kernel_calls.clear()
    if fails:
        with pytest.raises(InvalidInputError,
                           match=r"gradient block is not psd: min eigenvalue -4\.000e-08"):
            oracle_pass([ball], [G], [np.eye(2)])
        assert len(kernel_calls.of("eigvalsh")) == 1
    else:
        _check_gradients(G[None])
        assert kernel_calls.of("eigvalsh") == []
        assert oracle_pass([ball], [G], [np.eye(2)])[0].active


@pytest.mark.parametrize("kind", [KL, FISHER, W2], ids=["kl", "fisher", "w2"])
def test_gradient_psd_check_falls_back_to_the_eigenvalues(kernel_calls, kind):
    # eigenvalues 10 and -8e-8 with diagonal 5 - 4e-8: the Cholesky shift
    # 1e-8 (1 + 5) is below the rule's 1e-8 (1 + 10) = 1.1e-7, so the
    # Cholesky fails and the eigenvalues pass the block, whatever its kind.
    # The check computes the eigenvalues of the gradient itself once; the
    # Fisher setup's of Shat Gamma Shat are of another matrix
    a, b = (10.0 - 8e-8) / 2.0, (10.0 + 8e-8) / 2.0
    G = np.array([[a, b], [b, a]])
    ball = AmbiguityBall(kind, MomentPair.zero_mean(np.diag([1.0, 2.0])), 0.5)
    kernel_calls.clear()
    assert oracle_pass([ball], [G], [np.eye(2)])[0].active
    assert sum(np.array_equal(args[0], G[None]) for args in kernel_calls.of("eigvalsh")) == 1
    assert np.array_equal(_check_gradients(G[None]), G[None])


@pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
def test_wasserstein_floor_check_is_never_looser(monkeypatch, kernel_calls, factor, fails):
    # solve_oracle's rule: lam_min(output) >= lam_floor - 1e-10. The root
    # search is replaced by one that returns an output factor * 1e-10 below
    # the floor
    floor = 0.5
    ball = AmbiguityBall(W2, MomentPair.zero_mean(np.diag([floor, 1.0])), 0.5)

    def newton(kind, dual, blocks, d):
        k = blocks.size
        sigma = np.repeat(np.diag([floor - factor * 1e-10, 2.0])[None], k, axis=0)
        return np.ones(k), np.ones(k), np.ones(k), np.ones(k, dtype=int), sigma

    monkeypatch.setattr(oracles, "_newton", newton)
    kernel_calls.clear()
    if fails:
        with pytest.raises(OracleError, match="violates its eigenvalue floor"):
            solve_oracle(ball, np.eye(2), np.eye(2), floor)
        assert len(kernel_calls.of("eigvalsh")) == 1
    else:
        solve_oracle(ball, np.eye(2), np.eye(2), floor)
        assert kernel_calls.of("eigvalsh") == []


@pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
def test_moment_pair_check_is_never_looser(kernel_calls, factor, fails):
    # the rule: lam_min(M - mu mu^T) >= -1e-10 (1 + ||M||_F), about -2e-10 here
    M = np.diag([1.0, -factor * 2e-10])
    kernel_calls.clear()
    if fails:
        with pytest.raises(InvalidInputError,
                           match=r"invalid moment pair: M - mu mu\^T has eigenvalue -4\.000e-10"):
            MomentPair.zero_mean(M)
        assert len(kernel_calls.of("eigvalsh")) == 1
    else:
        MomentPair.zero_mean(M)
        assert kernel_calls.of("eigvalsh") == []


def _system(Q, R):
    T = R.shape[0]
    eye = np.eye(2)
    stack = np.repeat(eye[None], T, axis=0)
    return SystemInstance(T=T, A=stack, B=stack, C=stack, Q=Q, R=R)


@pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
def test_system_cost_checks_are_never_looser(kernel_calls, factor, fails):
    # the rules: lam_min(Q[t]) >= -1e-10 and lam_min(R[t]) >= 1e-10. The
    # offending block sits at t = 2 (Q) and t = 1 (R), which the message names
    T = 3
    Q = np.repeat(np.eye(2)[None], T + 1, axis=0)
    R = np.repeat(np.eye(2)[None], T, axis=0)
    Q[2] = np.diag([1.0, -factor * 1e-10])
    R[1] = np.diag([1.0, 1e-10 / factor])
    kernel_calls.clear()
    if fails:
        with pytest.raises(InvalidInputError, match=r"^Q\[2\] is not psd$"):
            _system(Q, R)
        with pytest.raises(InvalidInputError, match=r"^R\[1\] is not positive definite$"):
            _system(np.repeat(np.eye(2)[None], T + 1, axis=0), R)
        assert len(kernel_calls.of("eigvalsh")) == 2
    else:
        _system(Q, R)
        assert kernel_calls.of("eigvalsh") == []


KINDS = [W2, KL, FISHER]
KIND_IDS = ["w2", "kl", "fisher"]


def _nominal_model(kind, rho=0.5, T=4):
    # n = 3 and p = 2, so [X0; W] and V are stacks of different block sizes
    rng = np.random.default_rng(31)
    return NominalModel(kind, rand_spd(3, rng), np.stack([rand_spd(3, rng) for _ in range(T)]),
                        np.stack([rand_spd(2, rng) for _ in range(T)]), rho)


def _alone(kind, block, rho=0.5):
    """The message building one block's ball on its own raises."""
    with pytest.raises(InvalidInputError) as err:
        AmbiguityBall(kind, MomentPair.zero_mean(block), rho)
    return str(err.value)


def _with(model, faults):
    """model with the blocks named in faults ("X0", ("W", t) or ("V", t))
    replaced by a fault of the block's size."""
    X0, W, V = model.X0.copy(), model.W.copy(), model.V.copy()
    for where, fault in faults.items():
        if where == "X0":
            X0 = fault(X0)
        else:
            stack = W if where[0] == "W" else V
            stack[where[1]] = fault(stack[where[1]])
    return NominalModel(model.kind, X0, W, V, model.rho)


def _not_psd(scale):
    # an eigenvalue -scale, far beyond the moment-pair tolerance
    return lambda S: S - (np.linalg.eigvalsh(S)[0] + scale) * np.eye(len(S))


def _singular(S):
    # psd to rounding, under the KL and Fisher pd floor
    return S - np.linalg.eigvalsh(S)[0] * np.eye(len(S))


def _nan(S):
    S = S.copy()
    S[0, -1] = np.nan
    return S


def _label(where):
    return where if where == "X0" else f"{where[0]}[{where[1]}]"


def _block(model, where):
    return model.X0 if where == "X0" else getattr(model, where[0])[where[1]]


# a fault, and another of the same kind for a later block
_FAULTS = {"not_psd": (_not_psd(1e-3), _not_psd(1e-4)), "singular": (_singular, _singular),
           "non_finite": (_nan, _nan)}


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("where", ["X0", ("W", 1), ("V", 0), ("V", 2)], ids=_label)
def test_ball_profile_names_the_first_bad_block(kind, fault, where):
    # the fault sits at where, and a second one after it, at V[3], in the
    # order [X0, W_0.., V_0..]: the error names where, with the message
    # building where's ball alone raises
    first, later = _FAULTS[fault]
    bad = _with(_nominal_model(kind), {where: first, ("V", 3): later})
    block = _block(bad, where)
    if fault == "singular" and kind is W2:
        bad.ball_profile()  # a psd nominal is a valid Wasserstein one
        return
    with pytest.raises(InvalidInputError) as err:
        bad.ball_profile()
    assert str(err.value) == f"{_label(where)}: {_alone(kind, block)}"


@pytest.mark.parametrize("kind", [KL, FISHER], ids=["kl", "fisher"])
@pytest.mark.parametrize("first, second", [
    (_singular, _not_psd(1e-3)), (_not_psd(1e-3), _singular),
    (_nan, _not_psd(1e-3)), (_not_psd(1e-3), _nan), (_nan, _singular), (_singular, _nan),
], ids=["singular_then_not_psd", "not_psd_then_singular", "nan_then_not_psd",
        "not_psd_then_nan", "nan_then_singular", "singular_then_nan"])
def test_ball_profile_orders_different_faults_by_block(kind, first, second):
    # the stack runs each check once, and still names the first bad block,
    # whichever check fails there
    model = _nominal_model(kind)
    bad = _with(model, {("W", 1): first, ("W", 3): second})
    with pytest.raises(InvalidInputError) as err:
        bad.ball_profile()
    assert str(err.value) == f"W[1]: {_alone(kind, bad.W[1])}"


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("where, shape", [("X0", (3, 2)), ("W", (4, 3, 2)), ("V", (4, 2))],
                         ids=["X0", "W", "V"])
def test_ball_profile_rejects_a_misshaped_stack(kind, where, shape):
    model = _nominal_model(kind)
    fields = {"X0": model.X0, "W": model.W, "V": model.V, where: np.ones(shape)}
    bad = NominalModel(kind, fields["X0"], fields["W"], fields["V"], model.rho)
    block = fields[where] if where == "X0" else fields[where][0]
    with pytest.raises(InvalidInputError) as err:
        bad.ball_profile()
    label = "X0" if where == "X0" else f"{where}[0]"
    assert str(err.value) == f"{label}: {_alone(kind, block)}"


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("rho", [-0.5, np.inf, np.nan, True, "0.5"],
                         ids=["negative", "inf", "nan", "bool", "string"])
def test_ball_profile_checks_rho_as_a_ball_does(kind, rho):
    model = _nominal_model(kind, rho=rho)
    with pytest.raises(InvalidInputError) as err:
        model.ball_profile()
    assert str(err.value) == _alone(kind, model.X0, rho)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("rho", [0, 0.5])
def test_ball_profile_equals_per_block_balls_bit_for_bit(kind, rho):
    model = _nominal_model(kind, rho=rho)
    # nominals off symmetry by rounding, which both paths symmetrize alike
    skew = np.random.default_rng(2).standard_normal((3, 3)) * 1e-15
    model = NominalModel(kind, model.X0 + skew, model.W, model.V, rho)
    profile = model.ball_profile()
    alone = [AmbiguityBall(kind, MomentPair.zero_mean(S), rho)
             for S in [model.X0, *model.W, *model.V]]
    assert len(profile.blocks()) == len(alone) == 9
    for got, want in zip(profile.blocks(), alone):
        assert (got.kind, got.eps, got.custom, got.min_radius) == (kind, 0.0, None, 0.0)
        assert type(got.radius) is float and got.radius == want.radius
        for a, b in ((got.nominal.cov, want.nominal.cov),
                     (got.nominal.second_moment, want.nominal.second_moment),
                     (got.nominal.mean, want.nominal.mean)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not got.nominal.cov.flags.writeable


@pytest.mark.parametrize("kind, rules", [(W2, 1), (KL, 2), (FISHER, 2)],
                         ids=["w2", "kl", "fisher"])
def test_ball_profile_checks_each_rule_once_per_stack(kernel_calls, kind, rules):
    # d = 10, T = 19: the 39 nominals are checked by one Cholesky per rule
    # and stack, [X0; W] and V, and no eigenvalues
    _, model = generate_instance(10, 19, 0, kind=kind, rho=0.1)
    kernel_calls.clear()
    assert len(model.ball_profile().blocks()) == 39
    assert len(kernel_calls.of("cholesky")) <= 2 * rules and kernel_calls.of("eigvalsh") == []
