"""The psd and pd checks that one batched Cholesky certifies are never looser
than their eigenvalue rules: a block inside a rule's tolerance passes, with
no eigenvalues computed where the Cholesky certifies it, and a block outside
fails through the eigenvalues with the rule's own message."""

import numpy as np
import pytest

from robustlqg import oracles
from robustlqg.divergences import AmbiguityBall, DivergenceKind, MomentPair
from robustlqg.errors import InvalidInputError, OracleError
from robustlqg.lqg import SystemInstance
from robustlqg.matops import _cholesky_certifies
from robustlqg.oracles import _check_gradients, oracle_pass, solve_oracle

from conftest import counting

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


@pytest.mark.parametrize("kind", [KL, FISHER, W2], ids=["kl", "fisher", "w2"])
@pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
def test_gradient_psd_check_is_never_looser(monkeypatch, kind, factor, fails):
    # the rule: lam_min >= -1e-8 (1 + max |eig|) = -2e-8 for diag(1, -x)
    G = np.diag([1.0, -factor * 2e-8])
    ball = AmbiguityBall(kind, MomentPair.zero_mean(np.eye(2)), 0.5)
    eigs = counting(monkeypatch, np.linalg, "eigvalsh")
    if fails:
        with pytest.raises(InvalidInputError,
                           match=r"gradient block is not psd: min eigenvalue -4\.000e-08"):
            oracle_pass([ball], [G], [np.eye(2)])
        assert len(eigs) == 1
    else:
        _check_gradients(G[None])
        assert eigs == []
        assert oracle_pass([ball], [G], [np.eye(2)])[0].active


@pytest.mark.parametrize("kind", [KL, FISHER, W2], ids=["kl", "fisher", "w2"])
def test_gradient_psd_check_falls_back_to_the_eigenvalues(monkeypatch, kind):
    # eigenvalues 10 and -8e-8 with diagonal 5 - 4e-8: the Cholesky shift
    # 1e-8 (1 + 5) is below the rule's 1e-8 (1 + 10) = 1.1e-7, so the
    # Cholesky fails and the eigenvalues pass the block, whatever its kind.
    # The check computes the eigenvalues of the gradient itself once; the
    # Fisher setup's of Shat Gamma Shat are of another matrix
    a, b = (10.0 - 8e-8) / 2.0, (10.0 + 8e-8) / 2.0
    G = np.array([[a, b], [b, a]])
    ball = AmbiguityBall(kind, MomentPair.zero_mean(np.diag([1.0, 2.0])), 0.5)
    eigs = counting(monkeypatch, np.linalg, "eigvalsh")
    assert oracle_pass([ball], [G], [np.eye(2)])[0].active
    assert sum(np.array_equal(args[0], G[None]) for args in eigs) == 1
    assert np.array_equal(_check_gradients(G[None]), G[None])


@pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
def test_wasserstein_floor_check_is_never_looser(monkeypatch, factor, fails):
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
    eigs = counting(monkeypatch, np.linalg, "eigvalsh")
    if fails:
        with pytest.raises(OracleError, match="violates its eigenvalue floor"):
            solve_oracle(ball, np.eye(2), np.eye(2), floor)
        assert len(eigs) == 1
    else:
        solve_oracle(ball, np.eye(2), np.eye(2), floor)
        assert eigs == []


@pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
def test_moment_pair_check_is_never_looser(monkeypatch, factor, fails):
    # the rule: lam_min(M - mu mu^T) >= -1e-10 (1 + ||M||_F), about -2e-10 here
    M = np.diag([1.0, -factor * 2e-10])
    eigs = counting(monkeypatch, np.linalg, "eigvalsh")
    if fails:
        with pytest.raises(InvalidInputError,
                           match=r"invalid moment pair: M - mu mu\^T has eigenvalue -4\.000e-10"):
            MomentPair.zero_mean(M)
        assert len(eigs) == 1
    else:
        MomentPair.zero_mean(M)
        assert eigs == []


def _system(Q, R):
    T = R.shape[0]
    eye = np.eye(2)
    stack = np.repeat(eye[None], T, axis=0)
    return SystemInstance(T=T, A=stack, B=stack, C=stack, Q=Q, R=R)


@pytest.mark.parametrize("factor, fails", [(0.5, False), (2.0, True)])
def test_system_cost_checks_are_never_looser(monkeypatch, factor, fails):
    # the rules: lam_min(Q[t]) >= -1e-10 and lam_min(R[t]) >= 1e-10. The
    # offending block sits at t = 2 (Q) and t = 1 (R), which the message names
    T = 3
    Q = np.repeat(np.eye(2)[None], T + 1, axis=0)
    R = np.repeat(np.eye(2)[None], T, axis=0)
    Q[2] = np.diag([1.0, -factor * 1e-10])
    R[1] = np.diag([1.0, 1e-10 / factor])
    eigs = counting(monkeypatch, np.linalg, "eigvalsh")
    if fails:
        with pytest.raises(InvalidInputError, match=r"^Q\[2\] is not psd$"):
            _system(Q, R)
        with pytest.raises(InvalidInputError, match=r"^R\[1\] is not positive definite$"):
            _system(np.repeat(np.eye(2)[None], T + 1, axis=0), R)
        assert len(eigs) == 2
    else:
        _system(Q, R)
        assert eigs == []
