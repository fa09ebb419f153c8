import math
import re

import numpy as np
import pytest

from robustlqg.divergences import (
    AmbiguityBall,
    CustomDivergence,
    DivergenceKind,
    MomentPair,
    entropic_ot,
    entropic_ot_squared,
    fisher_gaussian,
    gelbrich,
    kl_t_divergence,
    membership,
)
from robustlqg.errors import InvalidInputError, NumericError

from conftest import rand_spd
from reference import zero_mean_feasibility_check


def _pair(cov, mean=None):
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if mean is None:
        return MomentPair.zero_mean(cov)
    return MomentPair.from_cov(np.asarray(mean, dtype=float), cov)


def test_moment_pair_validation():
    with pytest.raises(InvalidInputError):
        MomentPair(mean=np.array([1.0]), second_moment=np.array([[0.5]]))  # M < mu mu'
    p = MomentPair(mean=np.array([1.0]), second_moment=np.array([[1.5]]))
    assert p.cov[0, 0] == pytest.approx(0.5)


@pytest.mark.parametrize("mean", [np.zeros(3), np.array([0.3, -1.0, 0.5])], ids=["zero", "nonzero"])
def test_moment_pair_covariance_formed_once_and_read_only(mean):
    rng = np.random.default_rng(7)
    M = rand_spd(3, rng) + np.outer(mean, mean) + 1e-3 * rng.standard_normal((3, 3))
    pair = MomentPair(mean=mean, second_moment=M)
    S = 0.5 * (M + M.T)
    want = S - np.outer(mean, mean)
    assert np.array_equal(pair.cov, 0.5 * (want + want.T))  # bit for bit the symmetrized form
    assert pair.cov is pair.cov
    assert "_cov" not in repr(pair)
    for arr in (pair.cov, pair.second_moment):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert M.flags.writeable  # the caller's array stays writable


@pytest.mark.parametrize("radius", [-1.0, float("nan"), float("inf")])
def test_ball_radius_validation(radius):
    with pytest.raises(InvalidInputError):
        AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=_pair(np.eye(2)), radius=radius)


def test_gelbrich_trivial_values():
    a = _pair(np.diag([1.0, 2.0]))
    assert gelbrich(a, a) == pytest.approx(0.0, abs=1e-10)
    assert gelbrich(_pair(1.0), _pair(4.0)) == pytest.approx(1.0, abs=1e-10)
    a = _pair(np.diag([1.0, 9.0]))
    b = _pair(np.diag([4.0, 1.0]))
    assert gelbrich(a, b) == pytest.approx(math.sqrt(5.0), abs=1e-10)


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e4, 1e8])
def test_gelbrich_is_homogeneous_on_singular_covariances(s):
    # W2(sA, sB) = sqrt(s) W2(A, B); with rank-5 6 x 6 covariances the
    # rounding of the cross term's eigenvalues grows with s, so an absolute
    # clamp in sym_sqrt rejected about half of these pairs at s = 1e4. The
    # square root of the cross term's rounding-level eigenvalue limits the
    # agreement to about sqrt(eps) relative
    rng = np.random.default_rng(23)
    for _ in range(20):
        X, Y = rng.standard_normal((2, 6, 5))
        A, B = X @ X.T, Y @ Y.T
        base = gelbrich(_pair(A), _pair(B))
        assert gelbrich(_pair(s * A), _pair(s * B)) == pytest.approx(math.sqrt(s) * base,
                                                                    rel=1e-7)
        ball = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=_pair(s * B),
                             radius=1.01 * math.sqrt(s) * base)
        assert ball.divergence(_pair(s * A)) == pytest.approx(math.sqrt(s) * base, rel=1e-7)
        assert membership(ball, _pair(s * A))


@pytest.mark.parametrize("s", [1e-10, 1e-12, 1e-14, 1e-16])
def test_gelbrich_is_homogeneous_at_tiny_scales(s):
    # the trace term's rounding floor is relative to Tr Sa + Tr Sb: an
    # absolute floor of 1e-12 (1 + Tr Sa + Tr Sb) put distinct rank-5 6 x 6
    # covariances at distance 0 from s = 1e-14 down, so W2 membership
    # accepted any such pair. A ball of half the distance must reject
    rng = np.random.default_rng(23)
    for _ in range(20):
        X, Y = rng.standard_normal((2, 6, 5))
        A, B = X @ X.T, Y @ Y.T
        base = gelbrich(_pair(A), _pair(B))
        got = gelbrich(_pair(s * A), _pair(s * B))
        assert got == pytest.approx(math.sqrt(s) * base, rel=1e-7)
        ball = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=_pair(s * B),
                             radius=0.5 * math.sqrt(s) * base)
        assert not membership(ball, _pair(s * A), tol=0.0)


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e8])
def test_gelbrich_accepts_covariances_with_orthogonal_ranges(s):
    # for Sa and Sb with orthogonal ranges the cross term is 0 plus rounding
    # of order eps ||Sa|| ||Sb||, of either sign; a floor relative to the
    # cross term's own largest eigenvalue rejected nearly every such pair.
    # W2^2 is then Tr Sa + Tr Sb
    rng = np.random.default_rng(29)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(1, d))
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        Sb = s * (basis[:, :r] * rng.uniform(0.1, 3.0, r)) @ basis[:, :r].T
        Sa = s * (basis[:, r:] * rng.uniform(0.1, 3.0, d - r)) @ basis[:, r:].T
        want = math.sqrt(np.trace(Sa) + np.trace(Sb))
        assert gelbrich(_pair(Sa), _pair(Sb)) == pytest.approx(want, rel=1e-7)
        ball = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=_pair(Sb),
                             radius=1.01 * want)
        assert ball.divergence(_pair(Sa)) == pytest.approx(want, rel=1e-7)
        assert membership(ball, _pair(Sa))


def test_gelbrich_symmetry_and_triangle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        pairs = [
            MomentPair.from_cov(rng.standard_normal(d), rand_spd(d, rng)) for _ in range(3)
        ]
        a, b, c = pairs
        assert gelbrich(a, b) == pytest.approx(gelbrich(b, a), abs=1e-10)
        assert gelbrich(a, c) <= gelbrich(a, b) + gelbrich(b, c) + 1e-9


def test_kl_trivial_values():
    d = 3
    a = _pair(rand_spd(d, np.random.default_rng(1)))
    assert kl_t_divergence(a, a) == pytest.approx(0.0, abs=1e-10)
    for d in (1, 2, 5):
        two = _pair(2.0 * np.eye(d))
        one = _pair(np.eye(d))
        assert kl_t_divergence(two, one) == pytest.approx(d * (1 - math.log(2)) / 2, abs=1e-10)
    shift = _pair(np.eye(2), mean=[1.0, 0.0])
    assert kl_t_divergence(shift, _pair(np.eye(2))) == pytest.approx(0.5, abs=1e-10)


def test_kl_nonnegativity_and_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        a = _pair(rand_spd(d, rng))
        b = _pair(rand_spd(d, rng))
        val = kl_t_divergence(a, b)
        assert val >= -1e-12
        if val < 1e-10:
            np.testing.assert_allclose(a.cov, b.cov, atol=1e-4)


def test_kl_errors_and_sentinel():
    one = _pair(np.eye(2))
    with pytest.raises(InvalidInputError):
        kl_t_divergence(one, _pair(np.zeros((2, 2))))
    assert math.isinf(kl_t_divergence(_pair(np.diag([1.0, 0.0])), one))


@pytest.mark.parametrize("kind", [DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER],
                         ids=["kl", "fisher"])
def test_pd_nominal_check_is_relative_to_the_scale(kind):
    # lam_min(S) > 1e-12 ||S||_F: a pd nominal of any scale builds its ball,
    # and an exact zero does not
    S0 = rand_spd(3, np.random.default_rng(5))
    ball = AmbiguityBall(kind=kind, nominal=_pair(1e-12 * S0), radius=0.5)
    assert membership(ball, _pair(1e-12 * S0))
    with pytest.raises(InvalidInputError, match="nominal covariance must be pd"):
        AmbiguityBall(kind=kind, nominal=_pair(np.zeros((3, 3))), radius=0.5)


def test_fisher_trivial_values():
    a = _pair(rand_spd(3, np.random.default_rng(3)))
    assert fisher_gaussian(a, a) == pytest.approx(0.0, abs=1e-10)
    assert fisher_gaussian(_pair(2.0), _pair(1.0)) == pytest.approx(0.5, abs=1e-10)
    shift = _pair(np.eye(2), mean=[1.0, 0.0])
    assert fisher_gaussian(shift, _pair(np.eye(2))) == pytest.approx(1.0, abs=1e-10)


def test_entropic_ot_small_eps_matches_gelbrich():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        a = _pair(rand_spd(d, rng, 0.5, 2.0))
        b = _pair(rand_spd(d, rng, 0.5, 2.0))
        assert entropic_ot(a, b, eps=1e-6) == pytest.approx(gelbrich(a, b), abs=1e-4)


def test_entropic_ot_scalar_hand_expansion():
    # scalar Sigma_a = Sigma_b = 1, eps = 1: X_eps = sqrt(1 + 1/16) - 1/4
    # and the squared value follows term by term
    a = _pair(1.0)
    X = math.sqrt(1.0 + 1.0 / 16.0) - 0.25
    expected = 1.0 + 1.0 - 2.0 * X - 0.5 * math.log(
        (2 * math.pi * math.e) ** 2 * 0.5 * X
    )
    assert entropic_ot_squared(a, a, eps=1.0) == pytest.approx(expected, abs=1e-12)
    # the squared value is negative here, so no real square root exists
    assert expected < 0
    with pytest.raises(NumericError):
        entropic_ot(a, a, eps=1.0)
    # positive branch at small eps: strictly positive at identical arguments
    assert entropic_ot(a, a, eps=1e-3) > 0.0


def test_entropic_ot_minimizer_location():
    # scalar numeric minimization of the squared value over Sigma_a finds
    # Sigma_b + eps/2
    for eps in (0.5, 1.0):
        b = _pair(1.3)
        grid = np.linspace(0.05, 5.0, 4001)
        vals = [entropic_ot_squared(_pair(s), b, eps) for s in grid]
        argmin = grid[int(np.argmin(vals))]
        assert argmin == pytest.approx(1.3 + eps / 2.0, abs=2e-3)


def test_entropic_ot_ball_min_radius():
    nominal = _pair(np.eye(2))
    with pytest.raises(InvalidInputError):
        AmbiguityBall(kind=DivergenceKind.ENTROPIC_OT, nominal=nominal, radius=0.0, eps=1e-2)
    ball = AmbiguityBall(kind=DivergenceKind.ENTROPIC_OT, nominal=nominal, radius=0.5, eps=1e-2)
    assert ball.min_radius <= 0.5
    shifted = _pair(np.eye(2) + 0.5e-2 * np.eye(2))
    assert membership(ball, shifted)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
def test_entropic_ot_needs_a_finite_positive_eps(eps):
    # a bad eps is named as such, before any matrix function sees it
    nominal = _pair(np.eye(2))
    with pytest.raises(InvalidInputError, match=r"^entropic OT needs a finite eps > 0$"):
        AmbiguityBall(kind=DivergenceKind.ENTROPIC_OT, nominal=nominal, radius=1.0, eps=eps)
    with pytest.raises(InvalidInputError, match=r"^entropic OT needs a finite eps > 0$"):
        entropic_ot_squared(nominal, _pair(2.0 * np.eye(2)), eps)


def test_membership_boundaries():
    w2 = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=_pair(1.0), radius=1.0)
    assert membership(w2, _pair(1.0))
    assert membership(w2, _pair(4.0), tol=1e-9)
    assert not membership(w2, _pair(4.2), tol=1e-9)

    # KL boundary from an independent scalar bisection of T(s, 1) = 1/2
    lo, hi = 1.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (mid - math.log(mid) - 1.0) < 0.5:
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)
    kl = AmbiguityBall(kind=DivergenceKind.KULLBACK_LEIBLER, nominal=_pair(1.0), radius=0.5)
    assert boundary == pytest.approx(3.146, abs=2e-3)
    assert membership(kl, _pair(boundary), tol=1e-3)
    assert not membership(kl, _pair(boundary * 1.01), tol=1e-6)


def test_membership_any_radius_contains_nominal():
    rng = np.random.default_rng(5)
    nominal = _pair(rand_spd(2, rng))
    for kind in (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER):
        ball = AmbiguityBall(kind=kind, nominal=nominal, radius=0.0)
        assert membership(ball, nominal)


def test_zero_mean_feasibility_all_kinds():
    rng = np.random.default_rng(6)
    for kind in (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER):
        nominal = _pair(rand_spd(3, rng, 0.8, 2.0))
        ball = AmbiguityBall(kind=kind, nominal=nominal, radius=1.0)
        hits = 0
        for _ in range(200):
            mu = 0.3 * rng.standard_normal(3)
            cov = nominal.cov + 0.2 * rand_spd(3, rng, 0.0, 1.0)
            cand = MomentPair.from_cov(mu, cov)
            if membership(ball, cand):
                hits += 1
            assert zero_mean_feasibility_check(ball, cand)
        assert hits > 20  # the check must actually exercise feasible points


def test_zero_mean_check_requires_zero_nominal():
    ball = AmbiguityBall(
        kind=DivergenceKind.WASSERSTEIN2,
        nominal=MomentPair.from_cov([1.0], [[1.0]]),
        radius=1.0,
    )
    with pytest.raises(InvalidInputError):
        zero_mean_feasibility_check(ball, _pair(1.0))


def test_sublevel_convexity():
    rng = np.random.default_rng(7)
    kinds = (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER)
    for kind in kinds:
        nominal = _pair(rand_spd(2, rng, 0.8, 2.0))
        ball = AmbiguityBall(kind=kind, nominal=nominal, radius=0.8)
        found = 0
        while found < 20:
            m1 = MomentPair.from_cov(0.2 * rng.standard_normal(2), nominal.cov + 0.3 * rand_spd(2, rng, 0.0, 1.0))
            m2 = MomentPair.from_cov(0.2 * rng.standard_normal(2), nominal.cov + 0.3 * rand_spd(2, rng, 0.0, 1.0))
            if not (membership(ball, m1) and membership(ball, m2)):
                continue
            found += 1
            for lam in (0.25, 0.5, 0.75):
                mix = MomentPair(
                    mean=lam * m1.mean + (1 - lam) * m2.mean,
                    second_moment=lam * m1.second_moment + (1 - lam) * m2.second_moment,
                )
                assert membership(ball, mix, tol=1e-8)


def test_monotone_ordering_fisher_kl():
    rng = np.random.default_rng(8)
    nominal = _pair(rand_spd(3, rng, 0.8, 2.0))
    for div in (kl_t_divergence, fisher_gaussian):
        prev = _pair(nominal.cov.copy())
        value = 0.0
        for _ in range(5):
            bumped = _pair(prev.cov + 0.3 * rand_spd(3, rng, 0.1, 1.0))
            new_value = div(bumped, nominal)
            assert new_value > value
            prev, value = bumped, new_value


def _frob(candidate, nom):
    dmu = candidate.mean - nom.mean
    return float(np.linalg.norm(candidate.cov - nom.cov, "fro") + dmu @ dmu)


def test_custom_divergence_ball_evaluates_its_handle():
    nominal = _pair(np.eye(2))
    handle = CustomDivergence(name="frobenius-test", evaluate=_frob, nominal=nominal, rho=1.0)
    ball = AmbiguityBall(kind=DivergenceKind.MOMENT_CUSTOM, nominal=nominal, radius=1.0,
                         custom=handle)
    assert membership(ball, _pair(np.eye(2) * 1.5))
    assert not membership(ball, _pair(np.eye(2) * 3.0))


def test_two_custom_divergences_of_one_name_coexist():
    # a handle is a value its balls hold, so a second handle of the same name
    # neither fails to build nor replaces the first
    nominal = _pair(np.eye(2))
    first = CustomDivergence(name="frobenius", evaluate=_frob, nominal=nominal, rho=1.0)
    second = CustomDivergence(name="frobenius", evaluate=lambda c, n: 4.0 * _frob(c, n),
                              nominal=nominal, rho=1.0)
    balls = [AmbiguityBall(kind=DivergenceKind.MOMENT_CUSTOM, nominal=nominal, radius=1.0,
                           custom=handle) for handle in (first, second)]
    candidate = _pair(np.eye(2) * 1.5)  # Frobenius distance 0.5 sqrt(2)
    assert [membership(ball, candidate) for ball in balls] == [True, False]


def _bands(candidate, nominal):
    # feasible means lie in bands of the first coordinate around multiples of
    # 2 pi / 100, so the midpoint of two points in different bands can fall
    # between them
    return 1.0 - math.cos(100.0 * candidate.mean[0])


def _tilted(candidate, nominal):
    # linear in (mean, second moment), so its sublevel sets are convex, but a
    # mean along e_1 lowers it: a point whose mean is zeroed can leave the ball
    return float(np.trace(candidate.second_moment - nominal.second_moment)
                 - 100.0 * candidate.mean[0])


@pytest.mark.parametrize("evaluate, rho, message", [
    (lambda c, n: 1.0, 1.0, "custom divergence must vanish at the nominal"),
    (_bands, 0.5, "custom divergence 'gated' fails sublevel-set convexity"),
    (_tilted, 0.1, "custom divergence 'gated' fails zero-mean feasibility"),
], ids=["identity", "convexity", "zero_mean"])
def test_a_custom_divergence_that_fails_a_gate_cannot_be_built(evaluate, rho, message):
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        CustomDivergence(name="gated", evaluate=evaluate, nominal=_pair(np.eye(2)), rho=rho)


@pytest.mark.parametrize("nominal, rho", [
    (np.eye(2), 1.0), (_pair(np.eye(2)), True), (_pair(np.eye(2)), -1.0),
    (_pair(np.eye(2)), float("nan")),
], ids=["array_nominal", "rho_bool", "rho_negative", "rho_nan"])
def test_custom_divergence_gates_need_a_nominal_pair_and_a_radius(nominal, rho):
    with pytest.raises(InvalidInputError, match="the gates need a MomentPair nominal"):
        CustomDivergence(name="frobenius", evaluate=_frob, nominal=nominal, rho=rho)


def test_zero_mean_feasibility_entropic_ot():
    rng = np.random.default_rng(9)
    nominal = _pair(rand_spd(2, rng, 0.8, 2.0))
    ball = AmbiguityBall(kind=DivergenceKind.ENTROPIC_OT, nominal=nominal, radius=1.2, eps=0.1)
    hits = 0
    for _ in range(200):
        mu = 0.3 * rng.standard_normal(2)
        cov = nominal.cov + 0.2 * rand_spd(2, rng, 0.0, 1.0)
        cand = MomentPair.from_cov(mu, cov)
        if membership(ball, cand):
            hits += 1
        assert zero_mean_feasibility_check(ball, cand)
    assert hits > 20


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER]
)
def test_membership_across_the_boundary_and_at_singular_candidates(kind):
    # 1 -+ 1e-6 times the radius crossing on the ray nominal + t P, at zero
    # tolerance; a singular candidate is INFEASIBLE for KL and Fisher, so
    # never a member
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        ball = AmbiguityBall(kind=kind, nominal=_pair(rand_spd(d, rng)), radius=0.4)
        P = rand_spd(d, rng)

        def div(t):
            return ball.divergence(_pair(ball.nominal.cov + t * P))

        lo, hi = 0.0, 1.0
        while div(hi) <= ball.radius:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if div(mid) <= ball.radius else (lo, mid)
        assert membership(ball, _pair(ball.nominal.cov + (1.0 - 1e-6) * lo * P), 0.0)
        assert not membership(ball, _pair(ball.nominal.cov + (1.0 + 1e-6) * lo * P), 0.0)
        if kind is DivergenceKind.WASSERSTEIN2:
            continue
        Qm, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sing = np.ones(d)
        sing[0] = 0.0
        for cand in ((Qm * sing) @ Qm.T, np.zeros((d, d))):
            assert ball.divergence(_pair(cand)) == math.inf
            assert not membership(ball, _pair(cand), 1.0)
