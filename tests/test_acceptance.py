"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Each criterion is a dedicated test with its tolerance pinned in the
assertions; the PASS/FAIL line is printed before asserting so failures
still report their line.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from robustlqg.divergences import (
    AmbiguityBall,
    DivergenceKind,
    MomentPair,
    entropic_ot,
    fisher_gaussian,
    gelbrich,
    kl_t_divergence,
)
from robustlqg.frank_wolfe import FwConfig, NominalModel, solve
from robustlqg.gradient import lqg_gradient
from robustlqg.instances import generate_instance, instance_rng, random_covariance
from robustlqg.lqg import CovarianceProfile, SystemInstance, lqg_value
from robustlqg.oracles import fisher_oracle, kl_oracle, oracle_pass, wasserstein_oracle
from robustlqg.stacked import (
    AffinePolicy,
    build_stacked,
    causal_mask,
    optimal_intercept,
    affine_objective,
    solve_inner_policy,
    stack_moments,
)
from robustlqg.stationary import (
    StationarySystem,
    solve_dare,
    solve_filter_are,
    solve_stationary_fw,
    stationary_cost,
)

from conftest import rand_spd
from reference import brute_force_oracle, fd_gradient, simulate_closed_loop


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        d = int(rng.integers(1, 5))
        T = int(rng.integers(1, 7))
        sys = SystemInstance(
            T=T,
            A=0.6 * rng.standard_normal((T, d, d)),
            B=rng.standard_normal((T, d, d)),
            C=rng.standard_normal((T, d, d)),
            Q=np.stack([rand_spd(d, rng) for _ in range(T + 1)]),
            R=np.stack([rand_spd(d, rng) for _ in range(T)]),
        )
        cov = CovarianceProfile(
            X0=rand_spd(d, rng, 1.0, 2.0),
            W=np.stack([rand_spd(d, rng, 1.0, 2.0) for _ in range(T)]),
            V=np.stack([rand_spd(d, rng, 1.0, 2.0) for _ in range(T)]),
        )
        _, grad = lqg_gradient(sys, cov)
        fd = fd_gradient(sys, cov, step=1e-5)
        for a, b in zip(grad.blocks(), fd.blocks()):
            worst = max(worst, float(np.max(np.abs(a - b) / (1.0 + np.abs(b)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed <= 60.0
    report(1, "gradient matches finite differences", ok,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed <= 60.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_oracle_exactness():
    rng = np.random.default_rng(202)
    runners = {
        DivergenceKind.WASSERSTEIN2:
            lambda G, S, r, ref: wasserstein_oracle(G, S, r, ref),
        DivergenceKind.KULLBACK_LEIBLER:
            lambda G, S, r, ref: kl_oracle(G, S, r, ref),
        DivergenceKind.FISHER:
            lambda G, S, r, ref: fisher_oracle(G, S, r, ref),
    }
    divs = {
        DivergenceKind.WASSERSTEIN2: gelbrich,
        DivergenceKind.KULLBACK_LEIBLER: kl_t_divergence,
        DivergenceKind.FISHER: fisher_gaussian,
    }
    worst_ratio, worst_act, worst_dom = 1.0, 0.0, 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        Qm, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = rng.uniform(0.0, 3.0, d)
        lam[int(rng.integers(0, d))] = rng.uniform(1.0, 3.0)
        Gamma = (Qm * lam) @ Qm.T
        nominal = (Qm * rng.uniform(0.5, 2.5, d)) @ Qm.T
        rho = float(rng.uniform(0.2, 1.5))
        for kind, run in runners.items():
            ball = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(nominal), radius=rho)
            res = run(Gamma, nominal, rho, nominal)
            bf = brute_force_oracle(Gamma, ball, grid_resolution=1e-4)
            val = float(np.sum(Gamma * (res.sigma_star - nominal)))
            val_bf = float(np.sum(Gamma * (bf.sigma_star - nominal)))
            worst_ratio = min(worst_ratio, val / val_bf if val_bf > 0 else 1.0)
            div = divs[kind](MomentPair.zero_mean(res.sigma_star), MomentPair.zero_mean(nominal))
            worst_act = max(worst_act, abs(div - rho))
            worst_dom = min(worst_dom, float(np.linalg.eigvalsh(res.sigma_star - nominal).min()))
    # scalar closed forms
    w2 = wasserstein_oracle(np.eye(1), np.eye(1), 1.0, np.eye(1))
    kl = kl_oracle(np.eye(1), np.eye(1), 0.5, np.eye(1))
    fi = fisher_oracle(np.eye(1), np.eye(1), 0.5, np.eye(1))
    scalars_ok = (
        abs(w2.dual_gamma - 2.0) <= 1e-3
        and abs(w2.sigma_star[0, 0] - 4.0) <= 1e-3
        and abs(kl.sigma_star[0, 0] - 3.146) <= 1e-3
        and abs(fi.sigma_star[0, 0] - 2.0) <= 1e-3
    )
    ok = worst_ratio >= 0.999 and worst_act <= 1e-6 and worst_dom >= -1e-7 and scalars_ok
    report(2, "oracle exactness on commuting instances", ok,
           f"ratio {worst_ratio:.6f}, activity {worst_act:.2e}, dominance {worst_dom:.2e}")
    assert worst_ratio >= 0.999
    assert worst_act <= 1e-6
    assert worst_dom >= -1e-7
    assert scalars_ok


# ----------------------------------------------------- criteria 3 and 4 (FW)

@pytest.fixture(scope="module")
def benchmark_runs():
    runs = []
    for kind in (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER):
        for seed in range(10):
            sys, model = generate_instance(10, 10, seed, kind=kind, rho=0.1)
            t0 = time.perf_counter()
            worst, trace = solve(sys, model.ball_profile(), cfg=FwConfig(max_iters=500, gap_tol=1e-3))
            wall = time.perf_counter() - t0
            runs.append((kind, seed, model, worst, trace, wall))
    return runs


def test_criterion_3_frank_wolfe_convergence(benchmark_runs):
    worst_iters, worst_wall, all_conv = 0, 0.0, True
    for kind, seed, model, worst, trace, wall in benchmark_runs:
        # the returned iterate's certified gap: the last record's surrogate
        # gap on a "gap" stop, the last pass's upper bound less the returned
        # objective on a "bound" stop
        all_conv &= trace.converged and trace.gap <= 1e-3
        worst_iters = max(worst_iters, len(trace.records))
        worst_wall = max(worst_wall, wall)
    ok = all_conv and worst_iters <= 500 and worst_wall <= 120.0
    report(3, "Frank-Wolfe convergence on the benchmark family", ok,
           f"max iters {worst_iters}, max wall {worst_wall:.2f}s")
    assert all_conv
    assert worst_iters <= 500
    assert worst_wall <= 120.0


def test_criterion_4_dominance_at_optimum(benchmark_runs):
    # NOTE: the Wasserstein worst case genuinely need not dominate the
    # nominal covariance (the oracle's unique maximizer can have a slightly
    # negative eigenvalue in Sigma* - Sigma_hat when the gradient eigenbasis
    # is misaligned with the nominal); this criterion is asserted as stated
    # and is expected to fail on some Wasserstein seeds. See
    # tests/test_oracles.py::test_noncommuting_wasserstein_oracle_matches_dense_grid
    # for the dense-grid verification that the oracle itself is exact.
    worst = {}
    for kind, seed, model, worst_profile, trace, _ in benchmark_runs:
        if not trace.converged:
            continue
        lmin = min(
            float(np.linalg.eigvalsh(got - nom).min())
            for got, nom in zip(worst_profile.blocks(), model.nominal_profile().blocks())
        )
        worst[(kind.value, seed)] = lmin
    overall = min(worst.values())
    violating = {k: v for k, v in worst.items() if v < -1e-7}
    ok = not violating
    report(4, "dominance of worst-case covariances", ok,
           f"min eigenvalue {overall:.3e}, violations: "
           + (", ".join(f"{k}={v:.1e}" for k, v in sorted(violating.items())) or "none"))
    assert ok, (
        "worst-case covariance blocks fail Loewner dominance by more than 1e-7: "
        f"{violating}"
    )


def test_w2_worst_case_need_not_dominate_at_a_unique_optimum():
    """A counterexample to criterion 4 on the benchmark family itself.

    The objective J is concave, so a worst case Sigma* maximizes the
    linearization <grad J(Sigma*), Sigma> over the balls, and any other
    worst case Sigma' does too: J is constant on the segment between them,
    so <grad J(Sigma*), Sigma' - Sigma*> is both >= 0 (concavity) and <= 0
    (optimality). Where a gradient block is pd, the maximizer of <G, Sigma>
    over a Gelbrich ball is unique (M Shat M, M = g (gI - G)^{-1}). Here
    every gradient block at the solve's last iterate is pd, so the worst
    case is unique, and it is the oracle target at those gradients up to
    the solve's surrogate gap of 1e-7. Both the returned profile and that
    target have blocks with lambda_min(Sigma - Sigma_hat) about -5e-4, far
    beyond the gap: the unique worst case fails Loewner dominance.
    """
    sys, model = generate_instance(10, 10, 8, kind=DivergenceKind.WASSERSTEIN2, rho=0.1)
    balls = model.ball_profile()
    worst, trace = solve(sys, balls, cfg=FwConfig(gap_tol=1e-7))
    # the certified gap of the returned profile, on the surrogate stop
    assert trace.converged and trace.stop == "gap"
    assert trace.gap <= 1e-7  # 1.76e-8 measured
    grads = [G for stack in trace.grads for G in stack]
    nominal = model.nominal_profile().blocks()

    def dominance(blocks):
        return min(float(np.linalg.eigvalsh(S - hat).min()) for S, hat in zip(blocks, nominal))

    assert min(float(np.linalg.eigvalsh(G).min()) for G in grads) > 0.0  # 2.3e-5 measured
    assert dominance(worst.blocks()) < -1e-4  # -5.17e-4 measured
    targets = oracle_pass(balls.blocks(), grads, worst.blocks())
    assert dominance([r.sigma_star for r in targets]) < -1e-4  # -5.19e-4 measured


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_zero_radius_degeneracy():
    worst_frob, worst_gain = 0.0, 0.0
    for kind in (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER):
        sys, model = generate_instance(3, 4, seed=5, kind=kind, rho=0.0)
        worst, trace = solve(sys, model.ball_profile(), cfg=FwConfig(max_iters=50))
        assert trace.converged
        nominal = model.nominal_profile()
        for got, nom in zip(worst.blocks(), nominal.blocks()):
            worst_frob = max(worst_frob, float(np.linalg.norm(got - nom, "fro")))
        sol_rob = lqg_value(sys, worst)
        sol_nom = lqg_value(sys, nominal)
        worst_gain = max(
            worst_gain,
            float(np.abs(sol_rob.K - sol_nom.K).max()),
            float(np.abs(sol_rob.L - sol_nom.L).max()),
        )
    ok = worst_frob <= 1e-12 and worst_gain <= 1e-12
    report(5, "zero-radius degeneracy", ok,
           f"profile drift {worst_frob:.1e}, gain drift {worst_gain:.1e}")
    assert worst_frob <= 1e-12
    assert worst_gain <= 1e-12


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_strong_duality_cross_check():
    worst_rel, worst_sigma = 0.0, 0.0
    for kind, d, T, seed in (
        (DivergenceKind.WASSERSTEIN2, 2, 3, 0),
        (DivergenceKind.KULLBACK_LEIBLER, 2, 2, 1),
        (DivergenceKind.WASSERSTEIN2, 1, 3, 2),
    ):
        sys, model = generate_instance(d, T, seed, kind=kind, rho=0.4)
        worst, trace = solve(sys, model.ball_profile(), cfg=FwConfig(max_iters=500, gap_tol=1e-6))
        assert trace.converged
        dp_value = lqg_value(sys, worst).cost
        ss = build_stacked(sys)
        _, M_w, _, M_v = stack_moments(worst, ss.n, ss.p)
        _, inner = solve_inner_policy(ss, M_w, M_v)
        worst_rel = max(worst_rel, abs(inner - dp_value) / abs(dp_value))
        mc, se = simulate_closed_loop(sys, worst, lqg_value(sys, worst), 100_000, seed=seed)
        worst_sigma = max(worst_sigma, abs(mc - dp_value) / se)
    ok = worst_rel <= 1e-5 and worst_sigma <= 3.0
    report(6, "strong duality cross-check", ok,
           f"max rel gap {worst_rel:.2e}, max MC deviation {worst_sigma:.2f} sigma")
    assert worst_rel <= 1e-5
    assert worst_sigma <= 3.0


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_zero_mean_optimality():
    rng = np.random.default_rng(707)
    sys, model = generate_instance(2, 2, seed=7, rho=1.0)
    ss = build_stacked(sys)
    mask = causal_mask(ss.T, ss.m, ss.p)
    balls = {
        DivergenceKind.WASSERSTEIN2: 1.0,
        DivergenceKind.KULLBACK_LEIBLER: 1.0,
        DivergenceKind.FISHER: 1.5,
        DivergenceKind.ENTROPIC_OT: 1.0,
    }
    worst_violation = 0.0
    for kind, rho in balls.items():
        eps = 0.05 if kind is DivergenceKind.ENTROPIC_OT else 0.0
        nominal_cov = model.X0
        ball = AmbiguityBall(
            kind=kind, nominal=MomentPair.zero_mean(nominal_cov), radius=rho, eps=eps
        )
        count = 0
        while count < 100:
            mu = 0.4 * rng.standard_normal(2)
            cov = nominal_cov + 0.1 * rand_spd(2, rng, 0.0, 1.0)
            cand = MomentPair.from_cov(mu, cov)
            from robustlqg.divergences import membership

            if not membership(ball, cand):
                continue
            count += 1
            # the nonzero mean sits on the x0 block; all other blocks keep
            # their nominal zero-mean moments
            U = np.where(mask, rng.standard_normal(mask.shape), 0.0)
            mu_w = np.zeros(ss.n * (ss.T + 1))
            mu_w[: ss.n] = mu
            _, M_w, mu_v, M_v = stack_moments(model.nominal_profile(), ss.n, ss.p)
            M_w_mean = M_w.copy()
            M_w_mean[: ss.n, : ss.n] = cand.second_moment
            M_w_zero = M_w_mean  # same second moments, mean removed
            q_star = optimal_intercept(ss, U, mu_w, mu_v)
            with_mean = affine_objective(
                ss, AffinePolicy(U=U, q=q_star), mu_w, M_w_mean, mu_v, M_v
            )
            zero_mean = affine_objective(
                ss, AffinePolicy(U=U, q=np.zeros(ss.m * ss.T)),
                np.zeros_like(mu_w), M_w_zero, mu_v, M_v,
            )
            worst_violation = max(worst_violation, with_mean - zero_mean)
    ok = worst_violation <= 1e-9
    report(7, "zero-mean adversary optimality", ok,
           f"max violation {worst_violation:.2e}")
    assert worst_violation <= 1e-9


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_infinite_horizon():
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    eye = np.eye(1)
    ss = StationarySystem(A=eye, B=eye, C=eye, Q=eye, R=eye)
    P, _ = solve_dare(ss)
    S, _ = solve_filter_are(ss, eye, eye)
    golden_err = max(abs(P[0, 0] - golden), abs(S[0, 0] - golden))

    rng = np.random.default_rng(808)
    worst_resid = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.3, 0.8) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
        inst = StationarySystem(
            A=A, B=rng.standard_normal((n, 2)), C=rng.standard_normal((2, n)),
            Q=rand_spd(n, rng), R=rand_spd(2, rng),
        )
        P, _ = solve_dare(inst)
        gain = np.linalg.solve(inst.R + inst.B.T @ P @ inst.B, inst.B.T @ P @ inst.A)
        resid = P - (inst.A.T @ P @ inst.A + inst.Q - inst.A.T @ P @ inst.B @ gain)
        worst_resid = max(
            worst_resid,
            float(np.linalg.norm(resid, "fro") / (1.0 + np.linalg.norm(P, "fro"))),
        )

    # long-horizon agreement on a control-active instance
    ctrl = StationarySystem(A=1.2 * eye, B=eye, C=eye, Q=eye, R=eye)
    Sw, Sv = 1.3 * eye, 0.8 * eye
    avg, _ = stationary_cost(ctrl, Sw, Sv)
    T = 500
    sysT = SystemInstance.time_invariant(ctrl.A, ctrl.B, ctrl.C, ctrl.Q, ctrl.R, T=T)
    covT = CovarianceProfile(X0=Sw, W=np.repeat(Sw[None], T, 0), V=np.repeat(Sv[None], T, 0))
    finite_rel = abs(lqg_value(sysT, covT).cost / T - avg) / avg

    # stationary Frank-Wolfe dominance for both divergences at d = 2
    worst_dom = 0.0
    for kind in (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER):
        for seed in range(3):
            gen = instance_rng(seed)
            A2 = 0.1 * np.eye(2) + 0.1 * np.diag(np.ones(1), 1)
            inst = StationarySystem(A=A2, B=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
            Sw2, Sv2 = random_covariance(2, gen), random_covariance(2, gen)
            bw = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(Sw2), radius=0.5)
            bv = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(Sv2), radius=0.5)
            Sws, Svs, trace = solve_stationary_fw(inst, bw, bv, FwConfig(max_iters=500, gap_tol=1e-5))
            assert trace.converged
            worst_dom = min(
                worst_dom,
                float(np.linalg.eigvalsh(Sws - Sw2).min()),
                float(np.linalg.eigvalsh(Svs - Sv2).min()),
            )

    ok = (
        golden_err <= 1e-10
        and worst_resid <= 1e-9
        and finite_rel <= 1e-3
        and worst_dom >= -1e-7
    )
    report(8, "infinite horizon", ok,
           f"golden err {golden_err:.1e}, residual {worst_resid:.1e}, "
           f"T500 rel {finite_rel:.1e}, dominance {worst_dom:.1e}")
    assert golden_err <= 1e-10
    assert worst_resid <= 1e-9
    assert finite_rel <= 1e-3
    assert worst_dom >= -1e-7


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_gap_experiment(tmp_path):
    from robustlqg.experiments import ExperimentConfig, run_gaps

    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment="gaps", d=2, T=2, divergence="wasserstein2",
        rho=[float(r) for r in np.linspace(0.0, 10.0, 11)],
        seeds=list(range(10)), output_dir=str(tmp_path),
        fw=FwConfig(max_iters=500, gap_tol=1e-3),
    )
    out = run_gaps(cfg)
    elapsed = time.perf_counter() - t0
    rows = [(float(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in out["rows"]]
    min_wc = min(r[2] for r in rows)
    zero_rho_max = max(abs(r[2]) for r in rows if r[0] == 0.0)
    worst_spearman = 1.0
    for seed in range(10):
        series = sorted((r[0], r[2]) for r in rows if r[1] == seed)
        corr = spearmanr([s[0] for s in series], [s[1] for s in series]).statistic
        worst_spearman = min(worst_spearman, float(corr))
    ok = (
        out["all_converged"]
        and min_wc >= -1e-6
        and zero_rho_max <= 1e-8
        and worst_spearman >= 0.95
        and elapsed <= 600.0
    )
    report(9, "worst-case gap experiment", ok,
           f"min gap {min_wc:.1e}, rho=0 gap {zero_rho_max:.1e}, "
           f"spearman {worst_spearman:.3f}, {elapsed:.0f}s")
    assert out["all_converged"]
    assert min_wc >= -1e-6
    assert zero_rho_max <= 1e-8
    assert worst_spearman >= 0.95
    assert elapsed <= 600.0


# --------------------------------------------------------------- criterion 10

def test_criterion_10_divergence_unit_values():
    checks = []
    one = MomentPair.zero_mean(np.eye(1))
    four = MomentPair.zero_mean(4.0 * np.eye(1))
    checks.append((gelbrich(one, one), 0.0))
    checks.append((gelbrich(one, four), 1.0))
    a = MomentPair.zero_mean(np.diag([1.0, 9.0]))
    b = MomentPair.zero_mean(np.diag([4.0, 1.0]))
    checks.append((gelbrich(a, b), math.sqrt(5.0)))
    for d in (1, 3):
        checks.append((
            kl_t_divergence(MomentPair.zero_mean(2 * np.eye(d)), MomentPair.zero_mean(np.eye(d))),
            d * (1.0 - math.log(2.0)) / 2.0,
        ))
    shift = MomentPair.from_cov([1.0, 0.0], np.eye(2))
    center = MomentPair.zero_mean(np.eye(2))
    checks.append((kl_t_divergence(shift, center), 0.5))
    checks.append((kl_t_divergence(center, center), 0.0))
    checks.append((fisher_gaussian(MomentPair.zero_mean(2 * np.eye(1)), one), 0.5))
    checks.append((fisher_gaussian(shift, center), 1.0))
    checks.append((fisher_gaussian(center, center), 0.0))
    worst_unit = max(abs(got - want) for got, want in checks)

    rng = np.random.default_rng(1010)
    worst_eps = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        # the regularization error on the distance scale is
        # O(eps log(1/eps) / distance), so nearly-identical pairs are
        # excluded by drawing the eigenvalues from separated ranges
        pa = MomentPair.zero_mean(rand_spd(d, rng, 0.5, 1.5))
        pb = MomentPair.zero_mean(rand_spd(d, rng, 2.5, 4.0))
        worst_eps = max(worst_eps, abs(entropic_ot(pa, pb, eps=1e-6) - gelbrich(pa, pb)))
    ok = worst_unit <= 1e-10 and worst_eps <= 1e-4
    report(10, "divergence unit values", ok,
           f"closed forms {worst_unit:.1e}, entropic limit {worst_eps:.1e}")
    assert worst_unit <= 1e-10
    assert worst_eps <= 1e-4
