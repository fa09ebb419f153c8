import math

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
from robustlqg.errors import InvalidInputError, UnsupportedDivergenceError
from robustlqg.matops import symmetrize
from robustlqg.oracles import (
    fisher_oracle,
    kl_oracle,
    oracle_pass,
    solve_oracle,
    wasserstein_oracle,
)

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


def _run(kind, Gamma, nominal, rho, ref, delta=0.95):
    if kind is DivergenceKind.WASSERSTEIN2:
        return wasserstein_oracle(Gamma, nominal, rho, ref, 0.0, delta)
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        return kl_oracle(Gamma, nominal, rho, ref, delta)
    return fisher_oracle(Gamma, nominal, rho, ref, delta)


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
    nominal = np.diag([1.0, 2.0])
    res = _run(kind, np.eye(2), nominal, 0.0, 0.5 * nominal)
    np.testing.assert_array_equal(res.sigma_star, nominal)
    # the nominal is the only feasible point: its primal value is the bound
    assert res.steps == 0 and res.dual_bound == pytest.approx(1.5)


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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_floor_constraint_satisfied(kind):
    rng = np.random.default_rng(12)
    for _ in range(5):
        d = 3
        Gamma, nominal, rho, _ = _commuting_instance(rng, d, kind)
        floor = float(np.linalg.eigvalsh(nominal).min())
        res = _run(kind, Gamma, nominal, rho, nominal)
        assert np.linalg.eigvalsh(res.sigma_star).min() >= floor - 1e-10


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
    res = solve_oracle(ball, Gamma, nominal, 0.0, 0.95)
    assert membership(ball, MomentPair.zero_mean(res.sigma_star), 1e-8)


def _adapter(ball, Gamma, ref, floor, delta):
    """The per-block oracle for a ball, called as a batch of one."""
    if ball.kind is DivergenceKind.WASSERSTEIN2:
        return wasserstein_oracle(Gamma, ball.nominal.cov, ball.radius, ref, floor, delta)
    return _run(ball.kind, Gamma, ball.nominal.cov, ball.radius, ref, delta)


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
    balls, grads, refs, floors = [], [], [], []
    for z, d in enumerate(sizes):
        nominal = spd(d, 0.5, 2.5)
        radius = 0.0 if z == 2 else rho * float(rng.uniform(0.5, 1.5))
        kind = kinds[z % len(kinds)]
        balls.append(AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(nominal), radius=radius))
        grads.append(np.zeros((d, d)) if z == 1 else spd(d, 0.0, 3.0))
        floors.append(float(np.linalg.eigvalsh(nominal).min()) if z > T else 0.0)
        ref = nominal
        if z % 2:
            target = _adapter(balls[-1], grads[-1], nominal, floors[-1], 0.95).sigma_star
            ref = 0.5 * (nominal + target)
        refs.append(ref)
    return balls, grads, refs, floors


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
    # 1e-6 when bisected, and the delta criterion against its dual bound
    delta = 0.95
    balls, grads, refs, floors = _mixed_batch(seed, n, p, T, kinds, rho)
    batch = oracle_pass(balls, grads, refs, floors, delta)
    for ball, G, ref, floor, got in zip(balls, grads, refs, floors, batch):
        alone = _adapter(ball, G, ref, floor, delta)
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
            assert np.linalg.eigvalsh(got.sigma_star).min() >= floor - 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_one_indefinite_block_fails_the_batch(kind):
    balls, grads, refs, floors = _mixed_batch(3, 3, 2, 3, [kind], 0.5)
    grads[4] = np.diag([1.0, -1.0])
    with pytest.raises(InvalidInputError):
        oracle_pass(balls, grads, refs, floors)


def test_bisection_failure_raises_oracle_error(monkeypatch):
    # a block that cannot certify within the step budget fails the whole pass
    from robustlqg import oracles
    from robustlqg.errors import OracleError

    balls, grads, refs, floors = _mixed_batch(5, 3, 3, 2, [DivergenceKind.KULLBACK_LEIBLER], 0.5)
    assert max(r.steps for r in oracle_pass(balls, grads, refs, floors)) > 3
    monkeypatch.setattr(oracles, "_MAX_STEPS", 3)
    with pytest.raises(OracleError):
        oracle_pass(balls, grads, refs, floors)


def test_collapsed_bracket_certifies_or_raises(monkeypatch):
    # a d = 1 Wasserstein block has lo = hi; it is evaluated there like any
    # other block, and when that evaluation fails the acceptance test the
    # oracle raises instead of returning an uncertified result
    from robustlqg import oracles
    from robustlqg.errors import OracleError

    monkeypatch.setattr(oracles, "_ACTIVITY_TOL", -1.0)
    with pytest.raises(OracleError, match="failed to certify"):
        wasserstein_oracle(np.eye(1), np.eye(1), 1.0, np.eye(1))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_paper_pass_certifies_every_block_in_few_steps(kind):
    # Newton on the reciprocal form: a paper-family pass at the nominal
    # (d = 10, T = 50, rho = 0.1) needs at most 12 evaluations per block,
    # where bisection took up to 29
    from robustlqg.frank_wolfe import _lam_floors
    from robustlqg.gradient import lqg_gradient
    from robustlqg.instances import generate_instance

    sys, model = generate_instance(10, 50, seed=0, kind=kind, rho=0.1)
    balls = model.ball_profile()
    nominal = balls.nominal_profile()
    grads = lqg_gradient(sys, nominal)[1].blocks()
    results = oracle_pass(balls.blocks(), grads, nominal.blocks(), _lam_floors(balls))
    steps = [r.steps for r in results]
    assert min(steps) >= 1 and max(steps) <= 12


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
    # criterion and the Wasserstein eigenvalue floor
    delta = 0.95
    balls, grads, refs, floors = _mixed_batch(21, 3, 2, 4, list(ALL_KINDS), 0.7)
    newton = oracle_pass(balls, grads, refs, floors, delta)
    _slope_patched(monkeypatch, change)
    fallback = oracle_pass(balls, grads, refs, floors, delta)
    assert sum(r.steps for r in fallback) > 2 * sum(r.steps for r in newton)
    for ball, G, ref, floor, got, fast in zip(balls, grads, refs, floors, fallback, newton):
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
            assert np.linalg.eigvalsh(got.sigma_star).min() >= floor - 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dual_slope_matches_finite_differences(kind):
    # the analytic slope of each divergence (Daleckii-Krein for Fisher)
    # against a central difference, at points across the bracket
    from robustlqg.oracles import _SETUPS, _clean_gradients, _plan

    balls, grads, refs, floors = _mixed_batch(8, 3, 3, 3, [kind], 0.5)
    (group,) = _plan(balls, floors, [len(balls)]).groups
    G, top, eig = _clean_gradients(kind, np.array(grads))
    rho = group.rho
    live = np.flatnonzero((top > 0.0) & (rho > 0.0))
    c_ref = (G * np.array(refs)).sum(axis=(1, 2))[live]
    dual = _SETUPS[kind](G[live], group.nominal[live], rho[live], c_ref,
                         *(f[live] for f in eig + group.factors))
    assert dual.lo.size >= 4
    for t in (0.05, 0.3, 0.9):
        g = dual.lo + t * (dual.hi - dual.lo)
        _, slope, _ = dual.divergence(g, *dual.data)
        h = 1e-6 * g
        up = dual.divergence(g + h, *dual.data)[0]
        down = dual.divergence(g - h, *dual.data)[0]
        np.testing.assert_allclose(slope, (up - down) / (2.0 * h), rtol=1e-5)
        assert (slope < 0.0).all()


def test_fisher_pencil_runs_once_per_counted_evaluation(monkeypatch):
    # the Fisher bracket is closed-form, so the setup makes no pencil
    # eigendecomposition; a group pass makes one batched call per lockstep
    # step, over the blocks still live, so the calls cover exactly the
    # evaluations that steps counts
    from robustlqg import oracles

    balls, grads, refs, floors = _mixed_batch(8, 3, 3, 3, [DivergenceKind.FISHER], 0.5)
    calls = []
    inner = oracles._pencil

    def counting(*args):
        calls.append(args[0].size)
        return inner(*args)

    monkeypatch.setattr(oracles, "_pencil", counting)
    (group,) = oracles._plan(balls, floors, [len(balls)]).groups
    G, top, _ = oracles._clean_gradients(DivergenceKind.FISHER, np.array(grads))
    rho = group.rho
    live = np.flatnonzero((top > 0.0) & (rho > 0.0))
    c_ref = (G * np.array(refs)).sum(axis=(1, 2))[live]
    oracles._fisher(G[live], group.nominal[live], rho[live], c_ref,
                    *(f[live] for f in group.factors))
    assert calls == []
    steps = [r.steps for r in oracle_pass(balls, grads, refs, floors)]
    assert max(steps) >= 2
    assert len(calls) == max(steps) and sum(calls) == sum(steps)


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
    (fisher_oracle, np.diag([1.0, 0.0]), "Fisher oracle needs a positive definite nominal"),
    (fisher_oracle, np.diag([1.0, -1.0]), "Fisher oracle needs a positive definite nominal"),
    (kl_oracle, np.diag([1.0, -1.0]), "matrix is not psd"),
], ids=["fisher-singular", "fisher-indefinite", "kl-indefinite"])
def test_rejected_nominal_factored_silently_and_checked_when_live(oracle, nominal, message):
    # a group forms every block's nominal factors, live or not; a nominal the
    # setup rejects must not warn there (warnings are errors in this suite),
    # and is rejected, with the setup's message, only when its block goes live
    ref = np.diag([1.0, 0.0])
    for G, rho in ((np.zeros((2, 2)), 0.5), (np.eye(2), 0.0)):
        got = oracle(G, nominal, rho, ref)
        assert np.array_equal(got.sigma_star, nominal) and got.steps == 0
    with pytest.raises(InvalidInputError, match=message):
        oracle(np.eye(2), nominal, 0.5, ref)
