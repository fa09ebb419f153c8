import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlqg.divergences import (
    AmbiguityBall,
    DivergenceKind,
    MomentPair,
    fisher_gaussian,
    gelbrich,
    kl_t_divergence,
    membership,
)
from robustlqg import oracles
from robustlqg.errors import (
    ConditioningError,
    InvalidInputError,
    OracleError,
    UnsupportedDivergenceError,
)
from robustlqg.matops import symmetrize
from robustlqg.oracles import (
    fisher_oracle,
    kl_oracle,
    oracle_pass,
    solve_oracle,
    wasserstein_oracle,
)

from conftest import counting, rand_spd
from reference import brute_force_oracle


def _commuting_instance(rng, d, kind):
    """Gradient and nominal sharing an eigenbasis, plus the matching ball."""
    Qm, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = rng.uniform(0.0, 3.0, d)
    lam[int(rng.integers(0, d))] = rng.uniform(1.0, 3.0)  # keep Gamma nonzero
    s_hat = rng.uniform(0.5, 2.5, d)
    Gamma = (Qm * lam) @ Qm.T
    nominal = (Qm * s_hat) @ Qm.T
    rho = float(rng.uniform(0.2, 1.5))
    ball = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(nominal), radius=rho)
    return Gamma, nominal, rho, ball


def _run(kind, Gamma, nominal, rho, ref):
    if kind is DivergenceKind.WASSERSTEIN2:
        return wasserstein_oracle(Gamma, nominal, rho, ref)
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        return kl_oracle(Gamma, nominal, rho, ref)
    return fisher_oracle(Gamma, nominal, rho, ref)


_DIVS = {
    DivergenceKind.WASSERSTEIN2: gelbrich,
    DivergenceKind.KULLBACK_LEIBLER: kl_t_divergence,
    DivergenceKind.FISHER: fisher_gaussian,
}

ALL_KINDS = tuple(_DIVS)


def test_wasserstein_scalar_closed_form():
    # bounds collapse at d = 1: gamma* = 2, Sigma* = 4, Gelbrich hits rho
    res = wasserstein_oracle(np.eye(1), np.eye(1), 1.0, np.eye(1))
    assert res.dual_gamma == pytest.approx(2.0, abs=1e-9)
    assert res.sigma_star[0, 0] == pytest.approx(4.0, abs=1e-6)
    dist = gelbrich(MomentPair.zero_mean(res.sigma_star), MomentPair.zero_mean(np.eye(1)))
    assert dist == pytest.approx(1.0, abs=1e-6)
    assert res.active
    # one evaluation, at hi = lo, and phi(gamma*) = 2 + 2 - 1 is the
    # optimum <1, 4 - 1>
    assert res.steps == 1
    assert res.dual_bound == pytest.approx(3.0, abs=1e-9)


def test_kl_scalar_closed_form():
    # gamma* solves log(1 - 1/g) + 1/(g - 1) = 1
    res = kl_oracle(np.eye(1), np.eye(1), 0.5, np.eye(1))
    assert res.dual_gamma == pytest.approx(1.4659, abs=1e-3)
    assert res.sigma_star[0, 0] == pytest.approx(3.146, abs=1e-3)
    t_val = kl_t_divergence(
        MomentPair.zero_mean(res.sigma_star), MomentPair.zero_mean(np.eye(1))
    )
    assert t_val == pytest.approx(0.5, abs=1e-3)


def test_fisher_scalar_closed_form():
    # Sigma* solves s - 2 + 1/s = 1/2 with s >= 1: s = 2, then gamma = 4/3
    res = fisher_oracle(np.eye(1), np.eye(1), 0.5, np.eye(1))
    assert res.sigma_star[0, 0] == pytest.approx(2.0, abs=1e-3)
    assert res.dual_gamma == pytest.approx(4.0 / 3.0, abs=1e-3)
    f_val = fisher_gaussian(
        MomentPair.zero_mean(res.sigma_star), MomentPair.zero_mean(np.eye(1))
    )
    assert f_val == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_zero_gradient_short_circuits(kind):
    nominal = np.diag([1.0, 2.0])
    res = _run(kind, np.zeros((2, 2)), nominal, 0.7, nominal)
    np.testing.assert_array_equal(res.sigma_star, nominal)
    assert not res.active
    assert res.steps == 0 and res.dual_bound == 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_zero_radius_returns_nominal(kind):
    # the nominal is the only feasible point: its primal value is the bound,
    # and div = 0 = rho is tight, so the block is active whatever its
    # gradient, a zero one included
    nominal = np.diag([1.0, 2.0])
    for Gamma, bound in ((np.eye(2), 1.5), (np.zeros((2, 2)), 0.0)):
        res = _run(kind, Gamma, nominal, 0.0, 0.5 * nominal)
        np.testing.assert_array_equal(res.sigma_star, nominal)
        assert res.active and res.steps == 0 and math.isnan(res.dual_gamma)
        assert res.dual_bound == pytest.approx(bound)


def test_a_kl_nominal_factor_that_is_not_finite_raises(monkeypatch):
    # _cholesky raises nothing, so a KL factor the ball's pd check passed but
    # LAPACK could not form would come back nan; planning then fails loudly
    ball = AmbiguityBall(DivergenceKind.KULLBACK_LEIBLER, MomentPair.zero_mean(np.eye(2)), 0.1)
    monkeypatch.setattr(oracles, "_cholesky", lambda a: np.full_like(a, np.nan))
    with pytest.raises(ConditioningError, match="KL nominal covariance has no finite Cholesky"):
        oracle_pass([ball], [np.eye(2)], [np.eye(2)])


def test_wasserstein_decomposes_only_the_blocks_with_a_radius(kernel_calls):
    # a pass of four d = 3 blocks, two of them with rho = 0: the one eigh of
    # the group sees the two rows that search and nothing else
    rng = np.random.default_rng(4)
    radii = [0.5, 0.0, 0.3, 0.0]
    balls, grads = [], []
    for rho in radii:
        X = rng.standard_normal((3, 3))
        balls.append(AmbiguityBall(DivergenceKind.WASSERSTEIN2,
                                   MomentPair.zero_mean(X @ X.T + np.eye(3)), rho))
        Y = rng.standard_normal((3, 3))
        grads.append(symmetrize(Y @ Y.T))
    refs = [ball.nominal.cov for ball in balls]
    kernel_calls.clear()
    results = oracle_pass(balls, grads, refs)
    eighs = kernel_calls.of("eigh")
    assert len(eighs) == 1
    np.testing.assert_array_equal(eighs[0][0], np.array([grads[0], grads[2]]))
    assert [r.active for r in results] == [True] * 4
    assert [r.steps > 0 for r in results] == [True, False, True, False]


def test_rejects_indefinite_gradient():
    with pytest.raises(InvalidInputError):
        wasserstein_oracle(np.diag([1.0, -1.0]), np.eye(2), 1.0, np.eye(2))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_commuting_instances_against_brute_force(kind):
    rng = np.random.default_rng(hash(kind.value) % 2**31)
    for trial in range(15):
        d = int(rng.integers(1, 4))
        Gamma, nominal, rho, ball = _commuting_instance(rng, d, kind)
        ref = nominal
        res = _run(kind, Gamma, nominal, rho, ref)
        bf = brute_force_oracle(Gamma, ball, grid_resolution=1e-4)
        val = float(np.sum(Gamma * (res.sigma_star - ref)))
        val_bf = float(np.sum(Gamma * (bf.sigma_star - ref)))
        assert val >= 0.95 * val_bf  # delta-suboptimality versus the grid
        assert val >= val_bf - 1e-3 * (1.0 + abs(val_bf))
        # feasibility and activity of the analytic result
        pair = MomentPair.zero_mean(res.sigma_star)
        div = _DIVS[kind](pair, MomentPair.zero_mean(nominal))
        assert div <= rho + 1e-8
        assert abs(div - rho) <= 1e-6
        # dominance on commuting instances
        assert np.linalg.eigvalsh(res.sigma_star - nominal).min() >= -1e-7


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dual_gamma_within_bounds(kind):
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        Gamma, nominal, rho, _ = _commuting_instance(rng, d, kind)
        res = _run(kind, Gamma, nominal, rho, nominal)
        if kind is DivergenceKind.WASSERSTEIN2:
            lam1 = float(np.linalg.eigvalsh(Gamma).max())
            lo = lam1
            hi = lam1 * (1.0 + math.sqrt(np.trace(nominal)) / rho)
        elif kind is DivergenceKind.KULLBACK_LEIBLER:
            from robustlqg.matops import sym_sqrt

            root = sym_sqrt(nominal)
            lam1 = float(np.linalg.eigvalsh(root @ Gamma @ root).max())
            lo, hi = lam1, lam1 * (1.0 + d / rho)
        else:
            lo = float(np.linalg.eigvalsh(nominal @ Gamma @ nominal).max())
            hi = np.inf
        assert lo < res.dual_gamma <= hi * (1 + 1e-12)


def _lam_min(S):
    return float(np.linalg.eigvalsh(S)[0])


def _ill_conditioned_instance(rng):
    """A psd gradient and a nominal in unrelated eigenbases, d in 1..5: the
    nominal's eigenvalues span a ratio of up to 1e8 below its top one, 1,
    and the radius is log-uniform on [1e-3, 1e2]."""
    d = int(rng.integers(1, 6))

    def rotation():
        return np.linalg.qr(rng.standard_normal((d, d)))[0]

    U, V = rotation(), rotation()
    lam = rng.uniform(0.0, 3.0, d)
    lam[0] = rng.uniform(1.0, 3.0)  # keep Gamma nonzero
    s_hat = 10.0 ** -rng.uniform(0.0, rng.uniform(0.0, 8.0), d)
    s_hat[0] = 1.0
    return (U * lam) @ U.T, symmetrize((V * s_hat) @ V.T), float(10.0 ** rng.uniform(-3.0, 2.0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_floor_constraint_satisfied(kind):
    # every output dominates lam_min(Shat) I: for Wasserstein by construction
    # (K Shat K with K >= I), for KL and Fisher because Gamma is psd. No pass
    # checks it, so it is tested here, on non-commuting, ill-conditioned
    # instances for Wasserstein and KL
    rng = np.random.default_rng(12)
    cases = [_commuting_instance(rng, 3, kind)[:3] for _ in range(5)]
    if kind is not DivergenceKind.FISHER:
        cases += [_ill_conditioned_instance(rng) for _ in range(300)]
    for Gamma, nominal, rho in cases:
        res = _run(kind, Gamma, nominal, rho, nominal)
        assert _lam_min(res.sigma_star) >= _lam_min(nominal) - 1e-10


def test_divergence_decreases_in_gamma():
    # the root search exploits that the candidate's divergence falls as the
    # dual variable grows: sign pattern check across a sweep
    rng = np.random.default_rng(13)
    Gamma, nominal, rho, _ = _commuting_instance(rng, 3, DivergenceKind.WASSERSTEIN2)
    lam1 = float(np.linalg.eigvalsh(Gamma).max())
    vals, vecs = np.linalg.eigh(Gamma)
    s = np.diag(vecs.T @ nominal @ vecs)
    gammas = lam1 * (1.0 + np.linspace(0.05, 4.0, 40))
    divs = [
        math.sqrt(float(np.sum(s * (vals / (g - vals)) ** 2))) for g in gammas
    ]
    assert all(d1 > d2 for d1, d2 in zip(divs, divs[1:]))


def test_noncommuting_wasserstein_oracle_matches_dense_grid():
    # full-matrix 2x2 grid over the Gelbrich ball, not restricted to any
    # eigenbasis, using Tr(X^(1/2)) = sqrt(Tr X + 2 sqrt(det X))
    Gamma = np.array([[1.0, 1.0], [1.0, 1.0]])
    h2 = 0.01
    nominal = np.diag([1.0, h2])
    rho = math.sqrt(2.02)
    res = wasserstein_oracle(Gamma, nominal, rho, nominal)
    a = np.linspace(1e-4, 9, 400)[:, None, None]
    c = np.linspace(1e-4, 9, 400)[None, :, None]
    t = np.linspace(-1, 1, 201)[None, None, :]
    b = t * np.sqrt(a * c)
    trX = a + c * h2
    detX = h2 * np.maximum(a * c - b * b, 0.0)
    G2 = a + c + 1.0 + h2 - 2.0 * np.sqrt(np.maximum(trX + 2.0 * np.sqrt(detX), 0.0))
    obj = (a - 1.0) + (c - h2) + 2.0 * b
    obj = np.where(G2 <= rho**2 + 1e-9, obj, -np.inf)
    grid_best = float(obj.max())
    val = float(np.sum(Gamma * (res.sigma_star - nominal)))
    assert val >= grid_best - 1e-8
    assert val <= grid_best * (1.0 + 5e-2)  # grid is coarse; closed form wins slightly


def test_brute_force_zero_gradient_and_limits():
    ball = AmbiguityBall(
        kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(np.eye(2)), radius=0.5
    )
    res = brute_force_oracle(np.zeros((2, 2)), ball)
    np.testing.assert_array_equal(res.sigma_star, np.eye(2))
    big = AmbiguityBall(
        kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(np.eye(4)), radius=0.5
    )
    with pytest.raises(UnsupportedDivergenceError):
        brute_force_oracle(np.eye(4), big)
    with pytest.raises(InvalidInputError):
        # non-commuting instance rejected
        skew = np.array([[1.0, 0.4], [0.4, 0.5]])
        brute_force_oracle(np.diag([2.0, 1.0]), AmbiguityBall(
            kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(skew), radius=0.5
        ))


def test_brute_force_reproduces_scalar_closed_forms():
    ball = AmbiguityBall(
        kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(np.eye(1)), radius=1.0
    )
    res = brute_force_oracle(np.eye(1), ball, grid_resolution=1e-4)
    assert res.sigma_star[0, 0] == pytest.approx(4.0, abs=1e-3)
    ball = AmbiguityBall(
        kind=DivergenceKind.KULLBACK_LEIBLER, nominal=MomentPair.zero_mean(np.eye(1)), radius=0.5
    )
    res = brute_force_oracle(np.eye(1), ball, grid_resolution=1e-4)
    assert res.sigma_star[0, 0] == pytest.approx(3.146, abs=1e-3)
    ball = AmbiguityBall(
        kind=DivergenceKind.FISHER, nominal=MomentPair.zero_mean(np.eye(1)), radius=0.5
    )
    res = brute_force_oracle(np.eye(1), ball, grid_resolution=1e-4)
    assert res.sigma_star[0, 0] == pytest.approx(2.0, abs=1e-3)


def test_dual_slope_single_sign_change_all_kinds():
    # the dual objective is convex in gamma: its slope crosses zero once in
    # the bracket, which is what the root search exploits
    rng = np.random.default_rng(14)
    Gamma, nominal, rho, _ = _commuting_instance(rng, 3, DivergenceKind.KULLBACK_LEIBLER)
    from robustlqg.matops import sym_sqrt

    root = sym_sqrt(nominal)
    lam = np.maximum(np.linalg.eigvalsh(root @ Gamma @ root), 0.0)
    lam1 = float(lam.max())
    gammas = lam1 * (1.0 + np.linspace(1e-3, 3.0 / rho, 60))
    slopes = [
        2.0 * rho - float(np.sum(np.log1p(-lam / g) + lam / (g - lam))) for g in gammas
    ]
    signs = [s > 0 for s in slopes]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 1

    # Fisher: slope is rho minus the constraint value, also single-crossing
    inv2 = np.linalg.inv(nominal) @ np.linalg.inv(nominal)
    lo = float(np.linalg.eigvalsh(nominal @ Gamma @ nominal).max())
    gammas = lo * (1.0 + np.linspace(1e-3, 30.0, 60))
    vals = []
    for g in gammas:
        vv, vecs = np.linalg.eigh(inv2 - Gamma / g)
        sigma = (vecs / np.sqrt(vv)) @ vecs.T
        vals.append(
            rho - (float(np.sum(inv2 * sigma)) - 2.0 * np.trace(np.linalg.inv(nominal))
                   + float(np.sum(np.sqrt(vv))))
        )
    signs = [s > 0 for s in vals]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1


def test_solve_oracle_rejects_entropic_ot():
    from robustlqg.oracles import solve_oracle

    nominal = MomentPair.zero_mean(np.eye(2))
    ball = AmbiguityBall(kind=DivergenceKind.ENTROPIC_OT, nominal=nominal, radius=1.0, eps=0.05)
    with pytest.raises(UnsupportedDivergenceError):
        solve_oracle(ball, np.eye(2), np.eye(2))


def test_gradient_rounding_negatives_are_clamped():
    Gamma = np.diag([1.0, -1e-9])  # rounding-level negative eigenvalue
    res = wasserstein_oracle(Gamma, np.eye(2), 0.5, np.eye(2))
    assert res.active
    assert np.linalg.eigvalsh(res.sigma_star).min() > 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dual_values_upper_bound_the_primal(kind):
    # weak duality: the dual objective evaluated anywhere in the bracket
    # bounds the primal optimum (here: the brute-force grid value)
    rng = np.random.default_rng(15)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        Gamma, nominal, rho, ball = _commuting_instance(rng, d, kind)
        ref = nominal
        bf = brute_force_oracle(Gamma, ball, grid_resolution=1e-4)
        opt = float(np.sum(Gamma * (bf.sigma_star - ref)))
        c_ref = float(np.sum(Gamma * ref))
        if kind is DivergenceKind.WASSERSTEIN2:
            lam, vecs = np.linalg.eigh(Gamma)
            lam = np.maximum(lam, 0.0)
            s = np.diag(vecs.T @ nominal @ vecs)
            lam1 = float(lam.max())
            lo = lam1 * (1.0 + np.sqrt(max(s[-1], 0.0)) / rho)
            hi = lam1 * (1.0 + np.sqrt(np.trace(nominal)) / rho)
            duals = [
                g * rho**2 + g * float(np.sum(s * lam / (g - lam))) - c_ref
                for g in np.linspace(lo, hi, 25)
            ]
        elif kind is DivergenceKind.KULLBACK_LEIBLER:
            from robustlqg.matops import sym_sqrt

            root = sym_sqrt(nominal)
            lam = np.maximum(np.linalg.eigvalsh(root @ Gamma @ root), 0.0)
            lam1 = float(lam.max())
            duals = [
                2.0 * g * rho - g * float(np.sum(np.log1p(-lam / g))) - c_ref
                for g in np.linspace(lam1 * 1.0001, lam1 * (1 + d / rho), 25)
            ]
        else:
            inv_nom = np.linalg.inv(nominal)
            inv2 = inv_nom @ inv_nom
            lo = float(np.linalg.eigvalsh(nominal @ Gamma @ nominal).max())
            duals = []
            for g in np.linspace(lo * 1.001, lo * 20, 25):
                vals, vecs = np.linalg.eigh(inv2 - Gamma / g)
                if vals.min() <= 0:
                    continue
                sigma = (vecs / np.sqrt(vals)) @ vecs.T
                fisher = (float(np.sum(inv2 * sigma)) - 2.0 * np.trace(inv_nom)
                          + float(np.sum(np.sqrt(vals))))
                duals.append(float(np.sum(Gamma * sigma)) - g * (fisher - rho) - c_ref)
        assert duals, "no bracketed dual evaluations"
        assert min(duals) >= opt - 1e-6 * (1.0 + abs(opt))


@pytest.mark.parametrize(
    "kind, seed",
    [(DivergenceKind.WASSERSTEIN2, 20), (DivergenceKind.KULLBACK_LEIBLER, 12)],
)
def test_oracle_output_feasible_within_absolute_1e8(kind, seed):
    # at rho = 2 a slack relative to rho let these outputs overshoot by ~1.5e-8
    rng = np.random.default_rng(seed)

    def spd():
        Qm, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        return Qm @ np.diag(rng.uniform(0.5, 2.5, 3)) @ Qm.T

    Gamma, nominal = spd(), spd()
    ball = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(nominal), radius=2.0)
    res = solve_oracle(ball, Gamma, nominal)
    assert membership(ball, MomentPair.zero_mean(res.sigma_star), 1e-8)


def _mixed_batch(seed, n, p, T, kinds, rho):
    """Blocks ordered like a BallProfile, [x0, w.., v..] of sizes n and p, each
    with a kind from kinds; block 1 gets a zero gradient and block 2 rho = 0.
    The references are feasible, as FW iterates are: the nominal, or a point
    between the nominal and its oracle target."""
    rng = np.random.default_rng(seed)

    def spd(d, lo, hi):
        Qm, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return (Qm * rng.uniform(lo, hi, d)) @ Qm.T

    sizes = [n] * (T + 1) + [p] * T
    balls, grads, refs = [], [], []
    for z, d in enumerate(sizes):
        nominal = spd(d, 0.5, 2.5)
        radius = 0.0 if z == 2 else rho * float(rng.uniform(0.5, 1.5))
        kind = kinds[z % len(kinds)]
        balls.append(AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(nominal), radius=radius))
        grads.append(np.zeros((d, d)) if z == 1 else spd(d, 0.0, 3.0))
        ref = nominal
        if z % 2:
            target = solve_oracle(balls[-1], grads[-1], nominal).sigma_star
            ref = 0.5 * (nominal + target)
        refs.append(ref)
    return balls, grads, refs


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    p=st.integers(1, 4),
    T=st.integers(2, 4),
    kinds=st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=3),
    rho=st.floats(0.05, 3.0),
)
def test_batched_pass_is_independent_of_the_batch(seed, n, p, T, kinds, rho):
    # each block of a mixed batch gets exactly what it gets alone, and every
    # block meets the oracle contracts: feasible within 1e-8, active within
    # 1e-6 when bisected, the delta criterion (delta = 0.95) against its
    # dual bound, and for Wasserstein the eigenvalue floor lam_min(Shat)
    delta = 0.95
    balls, grads, refs = _mixed_batch(seed, n, p, T, kinds, rho)
    batch = oracle_pass(balls, grads, refs)
    for ball, G, ref, got in zip(balls, grads, refs, batch):
        alone = solve_oracle(ball, G, ref)
        scale = max(1.0, float(np.abs(alone.sigma_star).max()))
        assert np.abs(got.sigma_star - alone.sigma_star).max() <= 1e-12 * scale
        for a, b in ((got.dual_gamma, alone.dual_gamma), (got.dual_bound, alone.dual_bound),
                     (got.subopt_delta_achieved, alone.subopt_delta_achieved)):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12, nan_ok=True)
        assert (got.active, got.steps) == (alone.active, alone.steps)

        pair = MomentPair.zero_mean(got.sigma_star)
        assert membership(ball, pair, 1e-8)
        primal = float(np.sum(G * (got.sigma_star - ref)))
        noise = 1e-9 * max(1.0, abs(float(np.sum(G * ref))) + float(np.sum(G * ball.nominal.cov)))
        assert primal + 1.01 * noise >= delta * got.dual_bound
        if got.steps > 0:
            assert abs(ball.divergence(pair) - ball.radius) <= 1e-6
        if ball.kind is DivergenceKind.WASSERSTEIN2:
            assert _lam_min(got.sigma_star) >= _lam_min(ball.nominal.cov) - 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_indefinite_block_fails_the_batch(kind):
    balls, grads, refs = _mixed_batch(3, 3, 2, 3, [kind], 0.5)
    grads[4] = np.diag([1.0, -1.0])
    with pytest.raises(InvalidInputError):
        oracle_pass(balls, grads, refs)


def test_bisection_failure_raises_oracle_error(monkeypatch):
    # a block that cannot certify within the step budget fails the whole pass
    from robustlqg import oracles
    from robustlqg.errors import OracleError

    balls, grads, refs = _mixed_batch(5, 3, 3, 2, [DivergenceKind.KULLBACK_LEIBLER], 0.5)
    assert max(r.steps for r in oracle_pass(balls, grads, refs)) > 3
    monkeypatch.setattr(oracles, "_MAX_STEPS", 3)
    with pytest.raises(OracleError):
        oracle_pass(balls, grads, refs)


def test_collapsed_bracket_certifies_or_raises(monkeypatch):
    # a d = 1 Wasserstein block has lo = hi; it is evaluated there like any
    # other block, and when that evaluation fails the acceptance test the
    # oracle raises instead of returning an uncertified result
    from robustlqg import oracles
    from robustlqg.errors import OracleError

    monkeypatch.setattr(oracles, "_ACTIVITY_TOL", -1.0)
    with pytest.raises(OracleError, match="failed to certify"):
        wasserstein_oracle(np.eye(1), np.eye(1), 1.0, np.eye(1))


@pytest.mark.parametrize("kind, most", [
    (DivergenceKind.WASSERSTEIN2, 3),
    (DivergenceKind.KULLBACK_LEIBLER, 3),
    (DivergenceKind.FISHER, 3),
], ids=["w2", "kl", "fisher"])
def test_paper_pass_certifies_every_block_in_few_steps(kind, most):
    # Newton on the reciprocal form: a paper-family pass at the nominal
    # (d = 10, T = 50, rho = 0.1) needs at most 3 evaluations per block,
    # where bisection took up to 29. Wasserstein starts at hi, KL at the
    # root of its tail asymptote, and Fisher one step on its commuting model
    # past that root
    from robustlqg.gradient import lqg_gradient
    from robustlqg.instances import generate_instance

    sys, model = generate_instance(10, 50, seed=0, kind=kind, rho=0.1)
    balls = model.ball_profile()
    nominal = balls.nominal_profile()
    grads = lqg_gradient(sys, nominal)[1].blocks()
    results = oracle_pass(balls.blocks(), grads, nominal.blocks())
    steps = [r.steps for r in results]
    assert min(steps) >= 1 and max(steps) <= most


def _tail_coefficient(kind, dual, factors):
    """The c of the tail asymptote div(g) ~ c g^{-2} that a KL or Fisher
    setup's start reads, formed as the setup forms it from its dual's data:
    sum_i lam_i^2 / 4 over the clamped eigenvalues of L^T Gamma L (KL), and
    sum_ij H_ij^2 / (2 (s_i + s_j)) with H = diag(s) Gt diag(s), Gt the
    gradient in the nominal's eigenbasis (Fisher)."""
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        lam = dual.data[0]
        return 0.25 * (lam * lam).sum(axis=1)
    s_i, s_j = factors[1][:, :, None], factors[1][:, None, :]
    H = s_i * dual.data[2] * s_j
    return (H * H / (2.0 * (s_i + s_j))).sum(axis=(1, 2))


@pytest.mark.parametrize("kind", [DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER],
                         ids=["kl", "fisher"])
@pytest.mark.parametrize("seed, d", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 6)])
def test_tail_coefficient_matches_the_divergence_far_above_the_bracket(kind, seed, d):
    # the search starts at sqrt(c / rho), the root of div(g) ~ c g^{-2}; far
    # above the bracket the setup's c matches the divergence it evaluates,
    # on nominals that do not commute with the gradient. KL starts at that
    # root; Fisher's step from it is test_fisher_model_start_falls_back_inside_the_bracket
    from robustlqg import oracles

    rng = np.random.default_rng(seed)
    nominal = symmetrize(rand_spd(d, rng, 0.5, 2.5))
    X = rng.standard_normal((d, d))
    Gamma = symmetrize(X @ X.T)
    factors = oracles._nominal_factors(kind, nominal[None])
    rho = np.array([0.3])
    dual = oracles._SETUPS[kind](Gamma[None], nominal[None], rho, np.zeros(1), *factors)
    c = _tail_coefficient(kind, dual, factors)
    g = 1e4 * dual.lo
    div = dual.divergence(g, *dual.data)[0]
    assert abs(g[0] ** 2 * div[0] / c[0] - 1.0) <= 1e-3
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        assert dual.start[0] == oracles._tail_start(dual.lo, dual.hi, c, rho)[0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_decompositions_per_plan_and_pass(kernel_calls, kind):
    # what a plan and a pass decompose, with two groups (block sizes 3 and 2):
    # the plan factors KL nominals by Cholesky, no eigh, and Fisher nominals
    # by one eigh a group; a pass checks each group's gradients by one
    # Cholesky, then makes one eigh a group (Wasserstein, KL), or one eigvalsh
    # a group for the bracket and one pencil eigh a lockstep round (Fisher)
    from robustlqg import oracles

    T = 3
    balls, grads, refs = _mixed_batch(8, 3, 2, T, [kind], 0.5)
    names = ("eigh", "eigvalsh", "cholesky")
    kernel_calls.clear()
    plan = oracles._plan(balls, [T + 1, T])
    groups = len(plan.groups)
    assert groups == 2
    fisher, kl = kind is DivergenceKind.FISHER, kind is DivergenceKind.KULLBACK_LEIBLER
    assert [len(kernel_calls.of(n)) for n in names] == [groups * fisher, 0, groups * kl]
    kernel_calls.clear()
    found = oracles._run(plan, [np.array(grads[:T + 1]), np.array(grads[T + 1:])],
                         [np.array(refs[:T + 1]), np.array(refs[T + 1:])])
    rounds = sum(int(found.steps[group.idx].max()) for group in plan.groups)
    assert rounds > groups
    eigh = rounds if fisher else groups
    assert [len(kernel_calls.of(n)) for n in names] == [eigh, groups * fisher, groups]


def _slope_patched(monkeypatch, change):
    """Route every built-in divergence through change(slope)."""
    from robustlqg import oracles

    for name in ("_w2_divergence", "_kl_divergence", "_fisher_divergence"):
        inner = getattr(oracles, name)

        def patched(*args, inner=inner):
            div, slope, aux = inner(*args)
            return div, change(slope), aux

        monkeypatch.setattr(oracles, name, patched)


@pytest.mark.parametrize("change", [
    lambda s: np.full_like(s, np.nan),  # non-finite slope
    lambda s: -s,  # wrong sign
    lambda s: 1e-6 * s,  # a step far outside the bracket
], ids=["nan", "sign", "outside"])
def test_safeguard_certifies_every_block(monkeypatch, change):
    # with every Newton step refused, the bisection fallback alone meets the
    # oracle contracts: feasible within 1e-8, active within 1e-6, the delta
    # criterion and the Wasserstein eigenvalue floor lam_min(Shat)
    delta = 0.95
    balls, grads, refs = _mixed_batch(21, 3, 2, 4, list(ALL_KINDS), 0.7)
    newton = oracle_pass(balls, grads, refs)
    _slope_patched(monkeypatch, change)
    fallback = oracle_pass(balls, grads, refs)
    assert sum(r.steps for r in fallback) > 2 * sum(r.steps for r in newton)
    for ball, G, ref, got, fast in zip(balls, grads, refs, fallback, newton):
        pair = MomentPair.zero_mean(got.sigma_star)
        assert membership(ball, pair, 1e-8)
        primal = float(np.sum(G * (got.sigma_star - ref)))
        noise = 1e-9 * max(1.0, abs(float(np.sum(G * ref))) + float(np.sum(G * ball.nominal.cov)))
        assert primal + 1.01 * noise >= delta * got.dual_bound
        assert got.active == fast.active
        if got.steps > 0:
            assert abs(ball.divergence(pair) - ball.radius) <= 1e-6
            assert got.dual_gamma == pytest.approx(fast.dual_gamma, rel=1e-5)
        if ball.kind is DivergenceKind.WASSERSTEIN2:
            assert _lam_min(got.sigma_star) >= _lam_min(ball.nominal.cov) - 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dual_slope_matches_finite_differences(kind):
    # the analytic slope of each divergence (Daleckii-Krein for Fisher)
    # against a central difference, at points across the bracket
    from robustlqg.oracles import _SETUPS, _check_gradients, _plan

    balls, grads, refs = _mixed_batch(8, 3, 3, 3, [kind], 0.5)
    (group,) = _plan(balls, [len(balls)]).groups
    G = _check_gradients(np.array(grads))
    rho = group.rho
    live = np.flatnonzero(rho > 0.0)
    c_ref = (G * np.array(refs)).sum(axis=(1, 2))[live]
    dual = _SETUPS[kind](G[live], group.nominal[live], rho[live], c_ref,
                         *(f[live] for f in group.factors))
    # the blocks that search: the zero gradient of block 1 does not
    todo = dual.lo > 1e-12 * dual.size
    lo, hi, data = dual.lo[todo], dual.hi[todo], tuple(a[todo] for a in dual.data)
    assert lo.size >= 4
    for t in (0.05, 0.3, 0.9):
        g = lo + t * (hi - lo)
        _, slope, _ = dual.divergence(g, *data)
        h = 1e-6 * g
        up = dual.divergence(g + h, *data)[0]
        down = dual.divergence(g - h, *data)[0]
        np.testing.assert_allclose(slope, (up - down) / (2.0 * h), rtol=1e-5)
        assert (slope < 0.0).all()


def test_fisher_pencil_runs_once_per_counted_evaluation(monkeypatch):
    # the Fisher bracket is closed-form, so the setup makes no pencil
    # eigendecomposition; a group pass makes one batched call per lockstep
    # step, over the blocks still live, so the calls cover exactly the
    # evaluations that steps counts
    from robustlqg import oracles

    balls, grads, refs = _mixed_batch(8, 3, 3, 3, [DivergenceKind.FISHER], 0.5)
    calls = []
    inner = oracles._pencil

    def counting(*args):
        calls.append(args[0].size)
        return inner(*args)

    monkeypatch.setattr(oracles, "_pencil", counting)
    (group,) = oracles._plan(balls, [len(balls)]).groups
    G = oracles._check_gradients(np.array(grads))
    rho = group.rho
    live = np.flatnonzero(rho > 0.0)
    c_ref = (G * np.array(refs)).sum(axis=(1, 2))[live]
    oracles._fisher(G[live], group.nominal[live], rho[live], c_ref,
                    *(f[live] for f in group.factors))
    assert calls == []
    steps = [r.steps for r in oracle_pass(balls, grads, refs)]
    assert max(steps) >= 2
    assert len(calls) == max(steps) and sum(calls) == sum(steps)


_EVALUATIONS = {
    DivergenceKind.WASSERSTEIN2: "_w2_divergence",
    DivergenceKind.KULLBACK_LEIBLER: "_kl_divergence",
    DivergenceKind.FISHER: "_pencil",  # once per Fisher divergence evaluation
}


@pytest.mark.parametrize("kind, s, rho", [
    (DivergenceKind.WASSERSTEIN2, 1e-12, 1e-3),
    (DivergenceKind.KULLBACK_LEIBLER, 3.1622776601683794e-12, 3.1622776601683795),
    (DivergenceKind.FISHER, 1e-8, 562.341325190349),
    *((kind, None, 0.5) for kind in ALL_KINDS),
], ids=["w2-d1", "kl-d1", "fisher-d1", "w2-batch", "kl-batch", "fisher-batch"])
def test_root_search_counts_every_divergence_evaluation(monkeypatch, kind, s, rho):
    # each lockstep step makes one divergence call over the live blocks, and
    # the search evaluates nothing else: max(steps) calls, sum(steps) rows,
    # never an empty batch. The d = 1 cases, with a tiny nominal variance s,
    # start with brackets about 1e-12 wide or less
    from robustlqg import oracles

    if s is None:
        balls, grads, refs = _mixed_batch(8, 3, 3, 3, [kind], rho)

        def solve():
            return oracle_pass(balls, grads, refs)
    else:
        def solve():
            return [_run(kind, np.eye(1), s * np.eye(1), rho, s * np.eye(1))]
    calls = counting(monkeypatch, oracles, _EVALUATIONS[kind])
    steps = [r.steps for r in solve()]
    rows = [args[0].size for args in calls]
    assert max(steps) >= 1 and 0 not in rows
    assert len(rows) == max(steps) and sum(rows) == sum(steps)


def _exact_fisher_divergence(nominal, Gamma, g):
    """Tr Shat^{-2} Sigma(g) - 2 Tr Shat^{-1} + Tr Sigma(g)^{-1} at 60 digits,
    the double inputs taken as exact; inf where the pencil is not pd."""
    from mpmath import mp

    with mp.workdps(60):
        inv = mp.inverse(mp.matrix(nominal.tolist()))
        inv2 = inv * inv
        vals, vecs = mp.eigsy(inv2 - mp.matrix(Gamma.tolist()) / mp.mpf(g))
        if min(vals) <= 0:
            return mp.inf
        roots = [mp.sqrt(v) for v in vals]  # Sigma^{-1} = V diag(roots) V^T
        rotated = vecs.T * inv2 * vecs
        n = len(roots)
        return (mp.fsum(rotated[i, i] / roots[i] for i in range(n))
                - 2 * mp.fsum(inv[i, i] for i in range(n)) + mp.fsum(roots))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d=st.integers(1, 4),
    log_rho=st.floats(-6.0, 6.0),
    log_cond=st.floats(0.0, 9.0),
    rank_one=st.booleans(),
)
def test_fisher_upper_bracket_end_is_feasible(seed, d, log_rho, log_cond, rank_one):
    # div(hi) <= rho by the Loewner-Heinz bound, across radii 1e-6..1e6,
    # nominal condition numbers up to 1e9 and rank-one gradients. Double
    # precision cannot decide it at the extremes: at condition 1e9 the pencil
    # Shat^{-2} - Gamma/g has condition 1e18 and more, and for d = 1 at
    # rho / Tr Shat^{-1} ~ 1e6 the bound is tight to 1e-6 relative while
    # 1 - lo/hi ~ 1e-12 is known to 1e-4. So the divergence is evaluated
    # exactly, 4 ulps above the double hi.
    from robustlqg.oracles import _fisher, _nominal_factors

    rng = np.random.default_rng(seed)
    Qn, _ = np.linalg.qr(rng.standard_normal((d, d)))
    nominal = symmetrize((Qn * np.logspace(0.0, -log_cond, d)) @ Qn.T)
    X = rng.standard_normal((d, 1 if rank_one else d))
    Gamma = symmetrize(X @ X.T)
    rho = 10.0**log_rho
    dual = _fisher(Gamma[None], nominal[None], np.array([rho]), np.zeros(1),
                   *_nominal_factors(DivergenceKind.FISHER, nominal[None]))
    lo, hi = float(dual.lo[0]), float(dual.hi[0])
    assert 0.0 < lo < hi
    assert _exact_fisher_divergence(nominal, Gamma, hi * (1.0 + 4.0 * np.finfo(float).eps)) <= rho


@pytest.mark.parametrize("oracle, nominal, message", [
    (fisher_oracle, np.diag([1.0, 0.0]), "fisher nominal covariance must be pd"),
    (fisher_oracle, np.diag([1.0, -1.0]), "invalid moment pair"),
    (kl_oracle, np.diag([1.0, 0.0]), "kl nominal covariance must be pd"),
    (kl_oracle, np.diag([1.0, -1.0]), "invalid moment pair"),
    (wasserstein_oracle, np.diag([1.0, -1.0]), "invalid moment pair"),
], ids=["fisher-singular", "fisher-indefinite", "kl-singular", "kl-indefinite", "w2-indefinite"])
def test_wrappers_reject_an_invalid_nominal_before_any_root_step(monkeypatch, oracle, nominal,
                                                                  message):
    # a wrapper builds its nominal's AmbiguityBall first, so an invalid
    # nominal is rejected there whatever the gradient and radius, a zero
    # gradient and rho = 0 included, before a pass plans or a root search
    # steps
    from robustlqg import oracles

    plans = counting(monkeypatch, oracles, "_plan")
    steps = counting(monkeypatch, oracles, "_newton")
    ref = np.diag([1.0, 0.0])
    for G in (np.zeros((2, 2)), np.eye(2), np.diag([2.0, 0.5])):
        for rho in (0.0, 0.5):
            with pytest.raises(InvalidInputError, match=message):
                oracle(G, nominal, rho, ref)
    assert plans == steps == []


@pytest.mark.parametrize("oracle", [kl_oracle, fisher_oracle], ids=["kl", "fisher"])
def test_rounding_level_gradient_returns_the_nominal_inactive(oracle):
    # the gradient passes the psd check and is not zero: its top eigenvalue
    # is the smallest subnormal, next to negatives inside the -1e-8
    # tolerance. Whitening (KL) or Shat Gamma Shat (Fisher) with a nominal
    # eigenvalue of 0.01 underflows that eigenvalue to zero, so the bracket's
    # lo is 0 and the block returns the nominal, inactive, with no step and
    # no warning, like a zero gradient
    G = np.diag([np.nextafter(0.0, 1.0), -1e-9, -1e-9])
    nominal = np.diag([0.01, 1.0, 2.0])
    kind = DivergenceKind.KULLBACK_LEIBLER if oracle is kl_oracle else DivergenceKind.FISHER
    assert np.linalg.eigvalsh(G)[-1] > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = oracle(G, nominal, 0.5, nominal)
    assert np.array_equal(res.sigma_star, nominal)
    assert not res.active and res.steps == 0 and math.isnan(res.dual_gamma)
    assert res.dual_bound == 0.0


@pytest.mark.parametrize("oracle", [wasserstein_oracle, kl_oracle, fisher_oracle],
                         ids=["w2", "kl", "fisher"])
def test_rounding_level_transformed_gradient_returns_the_nominal_inactive(oracle):
    # the same kind of gradient against a nominal that mixes its directions:
    # the transformed gradient's top eigenvalue is a tiny positive rounding
    # residue, not <= 0, next to negatives of size 1e-9. Fisher used to
    # raise OracleError after 200 steps on it, KL to return an active
    # target 2.86 from the nominal and Wasserstein one 1.66 from it, after
    # 20 steps (its clamp in the gradient's own eigenbasis leaves the 1e-26
    # direction); all three now treat it as a zero gradient
    S = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    G = np.diag([1e-26, -1e-9, -1e-9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = oracle(G, S, 0.5, S)
    assert np.array_equal(res.sigma_star, S)
    assert not res.active and res.steps == 0 and math.isnan(res.dual_gamma)


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
def test_kl_oracle_is_scale_equivariant(s):
    # the KL divergence is invariant under Sigma -> s Sigma of both pairs, so
    # scaling the nominal by s and the gradient by 1/s scales the worst case by s
    # the nominal's eigenvalues lie in [0.2, 0.9], so at s = 1e-12 they are
    # below 1e-12: a pd floor not relative to the scale would reject it
    rng = np.random.default_rng(11)
    S0, G = rand_spd(3, rng, lo=0.2, hi=0.9), rand_spd(3, rng)
    want = s * kl_oracle(G, S0, 0.7, S0).sigma_star
    got = kl_oracle(G / s, s * S0, 0.7, s * S0).sigma_star
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", range(4))
def test_pass_upper_bounds_add_the_feasibility_slack(seed):
    # a searched block's upper bound is its dual bound plus gamma times the
    # growth of its kind's dual radius term at radius rho + 1e-8, which holds
    # every accepted target, so it bounds that target's primal value; a
    # block with no search (block 1 has a zero gradient, block 2 rho = 0)
    # bounds by its primal value, its dual_bound. OracleResult.dual_bound
    # carries no slack
    from robustlqg import oracles

    W2, KL, FISHER = ALL_KINDS
    slack = {W2: lambda rho: (rho + 1e-8) ** 2 - rho ** 2, KL: lambda rho: 2e-8,
             FISHER: lambda rho: 1e-8}
    T = 3
    balls, grads, refs = _mixed_batch(seed, 3, 2, T, ALL_KINDS, 0.5)
    plan = oracles._plan(balls, [T + 1, T])
    found = oracles._run(plan, [np.array(grads[:T + 1]), np.array(grads[T + 1:])],
                         [np.array(refs[:T + 1]), np.array(refs[T + 1:])])
    results = oracle_pass(balls, grads, refs)
    searched = 0
    for ball, G, ref, res, upper in zip(balls, grads, refs, results, found.upper):
        primal = float((symmetrize(G) * (res.sigma_star - ref)).sum())
        if res.steps:
            searched += 1
            want = res.dual_bound + res.dual_gamma * slack[ball.kind](ball.radius)
            assert upper == pytest.approx(want, rel=1e-12)
            assert res.dual_bound < upper and primal <= upper
        else:
            assert upper == res.dual_bound == pytest.approx(primal, rel=1e-12, abs=1e-14)
    assert searched == len(balls) - 2


def test_paper_solve_makes_at_most_three_rounds_per_fisher_pass():
    # the commuting-model start and the model's order: on the paper family
    # (d = 10, T = 50, rho = 0.1, gap 1e-3) every Fisher pass of a solve
    # certifies its 101 blocks in at most 3 lockstep rounds; the tail-order
    # search (q = 2 throughout, from the tail root) took 4
    from robustlqg.frank_wolfe import FwConfig, solve
    from robustlqg.instances import generate_instance

    for seed in range(8):
        sys, model = generate_instance(10, 50, seed=seed, kind=DivergenceKind.FISHER, rho=0.1)
        _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-3))
        assert trace.stop == "gap" and len(trace.records) >= 2
        assert all(1 <= r.oracle_rounds <= 3 for r in trace.records)


def _model_terms(g, h, w):
    """The commuting model m = w sum_k phi(h_k / g),
    phi(x) = (1-x)^{-1/2} + (1-x)^{1/2} - 2, and its first two derivatives
    in g, written out directly."""
    x = h / g
    phi = (1.0 - x) ** -0.5 + (1.0 - x) ** 0.5 - 2.0
    d1 = 0.5 * (1.0 - x) ** -1.5 - 0.5 * (1.0 - x) ** -0.5  # phi'(x)
    d2 = 0.75 * (1.0 - x) ** -2.5 - 0.25 * (1.0 - x) ** -1.5  # phi''(x)
    m = w * phi.sum()
    dm = -w * (d1 * x).sum() / g
    ddm = w * (d2 * x * x + 2.0 * d1 * x).sum() / g**2
    return m, dm, ddm


def test_fisher_model_order_runs_from_the_tail_to_the_pole():
    # the model's order 1 / (m m'' / m'^2 - 1) against the derivatives
    # written out, and its limits: 2 far above the pole max h, 1/2 next to it
    from robustlqg.oracles import _fisher_model

    h = np.array([[0.0, 0.3, 1.1, 2.0]])
    for g in (2.0 + 1e-6, 2.01, 2.5, 4.0, 40.0):
        m, dm, ddm = _model_terms(g, h[0], 1.0)
        s0, s1, q = _fisher_model(np.array([g]), h)
        assert s0[0] == pytest.approx(m, rel=1e-9)
        assert -s1[0] / g == pytest.approx(dm, rel=1e-9)
        assert q[0] == pytest.approx(1.0 / (m * ddm / dm**2 - 1.0), rel=1e-7)
    q = _fisher_model(np.array([2.0 + 1e-12, 2e8]), np.vstack([h, h]))[2]
    assert q[0] == pytest.approx(0.5, rel=1e-4) and q[1] == pytest.approx(2.0, rel=1e-6)
    # where every h / g rounds to 0 the order is 0 / 0: it reads 2
    assert _fisher_model(np.array([1.0]), np.array([[1e-300, 0.0]]))[2][0] == 2.0


def test_fisher_model_start_falls_back_inside_the_bracket(monkeypatch):
    # each block's first evaluation is one Newton step on the commuting
    # model, of the model's own order, from the tail root sqrt(c / rho) or,
    # where that is not strictly inside the bracket, from hi; where the step
    # is not strictly inside the bracket either, the search starts at that
    # base point. All four cases occur in the draws below
    from robustlqg import oracles

    first = counting(monkeypatch, oracles, "_fisher_divergence")
    seen = set()
    rng = np.random.default_rng(0)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        log_cond, log_rho = rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        nominal = symmetrize((Q * np.logspace(0.0, -log_cond, d)) @ Q.T)
        X = rng.standard_normal((d, d))
        Gamma, rho = symmetrize(X @ X.T), 10.0**log_rho
        factors = oracles._nominal_factors(DivergenceKind.FISHER, nominal[None])
        dual = oracles._fisher(Gamma[None], nominal[None], np.array([rho]), np.zeros(1), *factors)
        lo, hi = float(dual.lo[0]), float(dual.hi[0])
        c = float(_tail_coefficient(DivergenceKind.FISHER, dual, factors)[0])
        h = np.maximum(np.linalg.eigvalsh(symmetrize(nominal @ Gamma @ nominal)), 0.0)
        w = 4.0 * c / (h * h).sum()
        root = math.sqrt(c / rho)
        base = root if lo < root < hi else hi
        m, dm, ddm = _model_terms(base, h, w)
        q = min(max(1.0 / (m * ddm / dm**2 - 1.0), 0.5), 2.0)
        step = base - q * m * (m ** (1 / q) - rho ** (1 / q)) / (rho ** (1 / q) * dm)
        first.clear()
        try:
            fisher_oracle(Gamma, nominal, rho, nominal)
        except OracleError:
            pass
        start = float(first[0][0][0])
        moved = lo < step < hi
        if moved:
            # the written-out phi cancels where h / g is small
            assert start == pytest.approx(step, rel=1e-6)
        else:
            assert start == base
        seen.add((base == root, moved))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _fisher_grid(n, seed=5):
    """Seeded random fisher_oracle cases: d 1-6, nominal condition number up
    to 1e6, rho from 1e-3 to 10^2.5, a dense Wishart gradient, and the
    nominal as the reference."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        d = int(rng.integers(1, 7))
        log_cond = rng.uniform(0.0, 6.0)
        log_rho = rng.uniform(-3.0, 2.5)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        nominal = symmetrize((Q * np.logspace(0.0, -log_cond, d)) @ Q.T)
        X = rng.standard_normal((d, d))
        yield log_cond, symmetrize(X @ X.T), nominal, 10.0**log_rho


def test_fisher_divergence_is_accurate_near_the_pole_of_ill_conditioned_nominals():
    # the pencil, taken in the nominal's eigenbasis, is graded, and eigh keeps
    # its small eigenvalues there; with the divergence as a sum of squares,
    # the relative error at nominal condition 1e3-1e5 and g within 1e-3..1
    # (relative) above the pole lo stays at 2e-11 in the median and 2e-7 at
    # worst over these 40 points. The same sum of squares in the original
    # basis reads 3e-8 and 7e-5
    from robustlqg import oracles

    rng = np.random.default_rng(3)
    errors = []
    for _ in range(40):
        d, log_cond = int(rng.integers(2, 7)), rng.uniform(3.0, 5.0)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        nominal = symmetrize((Q * np.logspace(0.0, -log_cond, d)) @ Q.T)
        X = rng.standard_normal((d, d))
        Gamma = symmetrize(X @ X.T)
        dual = oracles._fisher(Gamma[None], nominal[None], np.array([1.0]), np.zeros(1),
                               *oracles._nominal_factors(DivergenceKind.FISHER, nominal[None]))
        g = dual.lo * (1.0 + 10.0 ** rng.uniform(-3.0, 0.0))
        div = dual.divergence(g, *dual.data)[0][0]
        errors.append(abs(div / float(_exact_fisher_divergence(nominal, Gamma, g[0])) - 1.0))
    assert np.median(errors) <= 1e-9 and max(errors) <= 1e-6


def _exact_fisher_offset(sigma, nominal, rho):
    """div(sigma) - rho for the Fisher divergence
    Tr Shat^{-2} Sigma - 2 Tr Shat^{-1} + Tr Sigma^{-1} at 50 digits, the
    double inputs taken as exact."""
    from mpmath import mp

    with mp.workdps(50):
        inv = mp.inverse(mp.matrix(nominal.tolist()))
        S = mp.matrix(sigma.tolist())
        A, Si = inv * inv * S, mp.inverse(S)
        n = S.rows
        return float(mp.fsum(A[i, i] - 2 * inv[i, i] + Si[i, i] for i in range(n)) - rho)


def test_fisher_search_certifies_a_seeded_grid_in_the_band():
    # the first 500 cases of the seeded grid with nominal condition up to
    # 1e3: every certified target's exact divergence lies in the band
    # [rho - 1e-6, rho + 1e-8], and 257 of the 259 cases certify in at most
    # 1400 evaluations (1240 here). The two others (d = 5 and 6, rho = 156
    # and 219) have their root within 4e-5 (relative) of the pole lo, where
    # the pencil's rounding still moves the computed divergence by about
    # 1e-5 from one g to the next (ROADMAP item 5). The trace form in the
    # original basis failed them too and certified 249 cases in 1641
    total, failed = 0, []
    for k, (log_cond, Gamma, nominal, rho) in enumerate(_fisher_grid(500)):
        if log_cond > 3.0:
            continue
        try:
            res = fisher_oracle(Gamma, nominal, rho, nominal)
        except OracleError:
            failed.append(k)
            continue
        assert res.active
        assert -1e-6 <= _exact_fisher_offset(res.sigma_star, nominal, rho) <= 1e-8
        total += res.steps
    assert failed == [125, 267] and total <= 1400


@pytest.mark.parametrize("case", [508, 1273, 1382])
def test_fisher_certificates_on_ill_conditioned_grid_cases_lie_in_the_band(case):
    # grid cases where the evaluation's rounding decided the outcome: 508
    # and 1382 (nominal condition 2e3 and 1e3) certified only on a lucky
    # double of g with the trace form, and 1273 (condition 9e5) certified
    # 3.7e-4 above rho with the divergence formed as
    # 2 sum r + sum_i Gt_ii / (g r_i) - 2t. The sum of squares in Shat's
    # eigenbasis certifies each with its exact divergence in the band
    *_, Gamma, nominal, rho = list(_fisher_grid(case + 1))[case]
    res = fisher_oracle(Gamma, nominal, rho, nominal)
    assert res.active
    assert -1e-6 <= _exact_fisher_offset(res.sigma_star, nominal, rho) <= 1e-8


@pytest.mark.parametrize("case", [125, 267])
def test_a_closed_bracket_raises_without_evaluating_a_point_again(monkeypatch, case):
    # the two grid cases that do not certify: each evaluates its last new
    # point by evaluation 31, its bracket then holds no double strictly
    # inside, and the search raises at once instead of evaluating that
    # point again until step 200
    from robustlqg import oracles

    *_, Gamma, nominal, rho = list(_fisher_grid(case + 1))[case]
    calls = counting(monkeypatch, oracles, "_fisher_divergence")
    with pytest.raises(OracleError, match=r"^fisher oracle failed to certify: its bracket "
                                          r"closed on g = \S+ at step \d+$"):
        fisher_oracle(Gamma, nominal, rho, nominal)
    points = [args[0][0] for args in calls]
    assert len(points) <= 40 and len(set(points)) == len(points)
