import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlqg.errors import InstabilityError, InvalidInputError
from robustlqg.matops import (
    _cholesky,
    _cholesky_certifies,
    _eigh,
    _eigvalsh,
    _fro,
    _inv,
    _schur_certified,
    _slogdet,
    _solve,
    _unstable_radius,
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


@pytest.mark.parametrize("s", [1e-20, 1e-12, 1e-4, 1.0, 1e4, 1e12, 1e20])
def test_lyapunov_is_scale_equivariant(s):
    # the stop is relative to Sigma: an absolute floor stopped after one step
    # at Q = 1e-20 I, 66% short of the solution
    rng = np.random.default_rng(13)
    cases = [(0.9 * np.eye(3), np.eye(3))]
    for d in (1, 3, 10):
        F = rng.standard_normal((d, d))
        cases.append((F * (0.9 / spectral_radius(F)), rand_spd(d, rng)))
    for F, Q in cases:
        ref = scipy.linalg.solve_discrete_lyapunov(F, s * Q)
        sigma = solve_discrete_lyapunov(F, s * Q)
        assert np.linalg.norm(sigma - ref, "fro") <= 1e-12 * np.linalg.norm(ref, "fro")
    assert not solve_discrete_lyapunov(0.9 * np.eye(3), np.zeros((3, 3))).any()


def test_lyapunov_rejects_unstable():
    with pytest.raises(InstabilityError, match=r"spectral radius 1.000000 >= 1 - 1e-8"):
        solve_discrete_lyapunov(np.eye(2), np.eye(2))


_RADII = (0.1, 0.5, 0.9, 0.99, 0.999, 1 - 1e-7, 1 - 1e-9, 1.0, 1.001, 1.01)


def _loops():
    """(family, F) on a seeded grid of spectral radii: dense, rotations in a
    random orthonormal basis (complex spectra), Jordan blocks (defective),
    strongly non-normal triangular loops, and unstable loops whose norms
    reach 1e300."""
    rng = np.random.default_rng(17)
    for d in (1, 2, 5, 10, 20):
        for r in _RADII:
            F = rng.standard_normal((d, d))
            yield "dense", F * (r / spectral_radius(F))
            if d == 1:
                continue
            basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
            D = np.zeros((d, d))
            for i, t in enumerate(rng.uniform(0.0, np.pi, d // 2)):
                D[2 * i:2 * i + 2, 2 * i:2 * i + 2] = r * np.array(
                    [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            if d % 2:
                D[-1, -1] = r
            yield "rotation", basis @ D @ basis.T
            yield "jordan", r * np.eye(d) + np.eye(d, k=1)
            yield "non-normal", r * np.eye(d) + 10.0 * np.triu(rng.standard_normal((d, d)), 1)
    for scale in (2.0, 1e3, 1e100, 1e160, 1e300):
        for d in (1, 3, 10):
            yield "huge", scale * np.eye(d) + np.eye(d, k=1)


@pytest.mark.filterwarnings("error")
def test_schur_certificate_agrees_with_eigenvalues():
    # a certificate proves rho(F) < 1 - 1e-8, so wherever it holds the
    # eigenvalue rule must agree; where it does not, the eigenvalues decide
    # and report the radius. The certificate is the Frobenius norm, so the
    # normal families certify at small radii, while Jordan and non-normal
    # loops (norm at least 1) never do; no overflow warning escapes
    certified = set()
    for family, F in _loops():
        rho = spectral_radius(F)
        stable = rho < 1.0 - 1e-8
        if _schur_certified(F):
            assert stable, (family, rho)
            assert np.linalg.norm(F) < 1.0 - 1e-8, family
            certified.add(family)
        assert _unstable_radius(F) == (None if stable else rho), (family, rho)
    assert certified == {"dense", "rotation"}


def test_schur_certificate_stops_short_of_the_margin():
    # at norm 1 - 1e-8 the loop is not stable with margin; a norm one
    # rounding slack below still certifies, up to d = 20
    for d in (1, 5, 20):
        unit = np.full((d, d), 1.0 / d)
        assert not _schur_certified((1.0 - 1e-8) * unit)
        assert _schur_certified((1.0 - 1e-8 - 1e-13) * unit)
        corner = np.zeros((d, d))
        corner[0, 0] = 1.0 - 1e-8
        assert _unstable_radius(corner) == 1.0 - 1e-8


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


def _kernel_cases():
    """Seeded stacks (batch 1-60 of d x d, d 1-12, d = 1 first): a
    symmetric pd stack of condition number up to 1e12, a symmetric
    indefinite one, a general one and a right-hand side of 1-12 columns."""
    rng = np.random.default_rng(23)
    for case in range(40):
        d = 1 if case < 4 else int(rng.integers(1, 13))
        batch = int(rng.integers(1, 61))
        Q = np.linalg.qr(rng.standard_normal((batch, d, d)))[0]
        spectrum = np.logspace(0.0, -rng.uniform(0.0, 12.0), d) * rng.uniform(0.1, 10.0)
        pd = symmetrize((Q * spectrum) @ Q.swapaxes(1, 2))
        general = rng.standard_normal((batch, d, d))
        rhs = rng.standard_normal((batch, d, int(rng.integers(1, 13))))
        yield pd, symmetrize(general), general, rhs


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_kernels_equal_numpy_linalg_bit_for_bit():
    # the kernels call numpy.linalg's own gufuncs (numpy.linalg._umath_linalg,
    # internal to numpy): a numpy upgrade that moves or changes them fails here
    for pd, sym, general, rhs in _kernel_cases():
        for stack in (pd, sym, general):
            for a in (stack, stack[0]):  # batched and one matrix
                b = rhs if a.ndim == 3 else rhs[0]
                assert _same(_solve(a, b), np.linalg.solve(a, b))
                assert _same(_inv(a), np.linalg.inv(a))
                assert all(map(_same, _slogdet(a), np.linalg.slogdet(a)))
        for a in (pd, sym, pd[0], sym[0]):
            assert all(map(_same, _eigh(a), np.linalg.eigh(a)))
            assert _same(_eigvalsh(a), np.linalg.eigvalsh(a))
        for a in (pd, pd[0]):
            assert _same(_cholesky(a), np.linalg.cholesky(a))
        for a in (pd[0], general[-1], rhs[0], rhs[0, :, 0]):
            a = np.ascontiguousarray(a)
            assert _fro(a) == np.linalg.norm(a) == np.linalg.norm(a, "fro" if a.ndim == 2 else 2)


@pytest.mark.filterwarnings("error")
def test_kernels_raise_linalg_errors_as_numpy_does():
    singular = np.array([[[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]]])
    indefinite = np.array([[[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    for kernel, reference, a in ((lambda a: _solve(a, np.ones((2, 2, 1))),
                                  lambda a: np.linalg.solve(a, np.ones((2, 2, 1))), singular),
                                 (_inv, np.linalg.inv, singular)):
        for x in (a, a[0]):
            with pytest.raises(np.linalg.LinAlgError) as want:
                reference(x)
            with pytest.raises(np.linalg.LinAlgError, match=f"^{want.value}$"):
                kernel(x)
    # Cholesky certifies neither a non-pd nor a nan matrix, and warns of neither
    assert not _cholesky_certifies(indefinite)
    assert not _cholesky_certifies(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert not _cholesky_certifies(np.full((3, 2, 2), np.nan))


@pytest.mark.filterwarnings("error")
def test_cholesky_returns_nan_for_exactly_the_blocks_numpy_rejects():
    # _cholesky raises nothing: a block np.linalg.cholesky rejects comes back
    # all nan, every other block is numpy's factor bit for bit
    indefinite = np.array([[[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    stacks = [indefinite] + [np.concatenate((pd, sym)) for pd, sym, _, _ in _kernel_cases()]
    rejected = 0
    for stack in stacks:
        got = _cholesky(stack)
        for a, factor in zip(stack, got):
            try:
                want = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                rejected += 1
                assert np.isnan(factor).all() and np.isnan(_cholesky(a)).all()
            else:
                assert _same(factor, want) and _same(_cholesky(a), want)
    assert rejected > len(stacks)  # most random symmetric blocks are indefinite
