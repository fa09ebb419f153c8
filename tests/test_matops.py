import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlqg.errors import InstabilityError, InvalidInputError
from robustlqg.matops import (
    solve_discrete_lyapunov,
    spectral_radius,
    sym_sqrt,
    symmetrize,
)

from conftest import rand_spd


def test_sym_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(sym_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_sym_sqrt_reconstructs_random_spd():
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(1, 13))
        S = rand_spd(d, rng, 0.1, 5.0)
        R = sym_sqrt(S)
        # eigendecomposition oracle
        vals, vecs = np.linalg.eigh(S)
        R_oracle = (vecs * np.sqrt(np.maximum(vals, 0))) @ vecs.T
        assert np.linalg.norm(R @ R - S, "fro") <= 1e-9 * (1 + np.linalg.norm(S, "fro"))
        np.testing.assert_allclose(R, R_oracle, atol=1e-9)
        np.testing.assert_allclose(R, R.T, atol=1e-12)


def test_sym_sqrt_rejects_indefinite_and_bad_shapes():
    with pytest.raises(InvalidInputError):
        sym_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(InvalidInputError):
        sym_sqrt(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        sym_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sym_sqrt_clamps_rounding_negatives():
    S = np.diag([1.0, -5e-11])
    R = sym_sqrt(S)
    assert np.linalg.eigvalsh(R).min() >= 0.0


def test_lyapunov_zero_and_scalar():
    np.testing.assert_allclose(solve_discrete_lyapunov(np.zeros((3, 3)), np.eye(3)), np.eye(3))
    sigma = solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
    assert sigma[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_lyapunov_matches_series_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        F = rng.standard_normal((d, d))
        F *= rng.uniform(0.2, 0.9) / max(spectral_radius(F), 1e-12)
        Q = rand_spd(d, rng)
        sigma = solve_discrete_lyapunov(F, Q)
        # truncated-series oracle sum_k F^k Q F^k^T
        acc = np.zeros_like(Q)
        term = Q.copy()
        Fk = np.eye(d)
        for _ in range(10_000):
            acc += Fk @ Q @ Fk.T
            Fk = F @ Fk
            if np.abs(Fk).max() < 1e-17:
                break
        assert np.abs(sigma - acc).max() <= 1e-8
        resid = sigma - F @ sigma @ F.T - Q
        assert np.linalg.norm(resid, "fro") <= 1e-9 * (1 + np.linalg.norm(Q, "fro"))
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10


def test_lyapunov_residual_at_d60():
    rng = np.random.default_rng(9)
    d = 60
    F = rng.standard_normal((d, d))
    F *= 0.5 / spectral_radius(F)
    Q = rand_spd(d, rng)
    sigma = solve_discrete_lyapunov(F, Q)
    resid = sigma - F @ sigma @ F.T - Q
    assert np.linalg.norm(resid, "fro") <= 1e-9 * (1 + np.linalg.norm(Q, "fro"))


@pytest.mark.parametrize("radius", [0.5, 0.99, 0.9999])
def test_lyapunov_matches_scipy(radius):
    rng = np.random.default_rng(11)
    for d in (1, 3, 10, 20):
        F = rng.standard_normal((d, d))
        F *= radius / spectral_radius(F)
        Q = rand_spd(d, rng)
        ref = scipy.linalg.solve_discrete_lyapunov(F, Q)
        sigma = solve_discrete_lyapunov(F, Q)
        assert np.linalg.norm(sigma - ref, "fro") <= 1e-9 * np.linalg.norm(ref, "fro")


def test_lyapunov_rejects_unstable():
    with pytest.raises(InstabilityError):
        solve_discrete_lyapunov(np.eye(2), np.eye(2))


def test_spectral_radius():
    assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9)
    assert spectral_radius(np.zeros((4, 4))) == 0.0
    # companion matrix of z^2 - 0.2 z - 0.03; root oracle via np.roots
    comp = np.array([[0.2, 0.03], [1.0, 0.0]])
    roots = np.roots([1.0, -0.2, -0.03])
    assert spectral_radius(comp) == pytest.approx(np.abs(roots).max())
    assert spectral_radius(comp) == pytest.approx(0.3, abs=1e-12)


def test_symmetrize_output_contract():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((5, 5))
    S = symmetrize(M)
    assert np.abs(S - S.T).max() <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 4), max_size=2),
       d=st.integers(1, 5))
def test_symmetrize_stack_is_per_matrix(seed, lead, d):
    stack = np.random.default_rng(seed).standard_normal((*lead, d, d))
    got = symmetrize(stack)
    for idx in np.ndindex(*lead):
        M = stack[idx]
        assert np.array_equal(got[idx], 0.5 * (M + M.T))
