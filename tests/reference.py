"""Verification-only references the tests compare the library against.

None of these is on the solve path:

- zero_mean_feasibility_check: the implication behind the zero-mean
  reduction (candidate in ball => its zero-mean version in ball).
- simulate_closed_loop: a Monte-Carlo closed-loop simulator with Gaussian
  or Student-t noise, an independent check of lqg_value.
- fd_gradient and fd_block_gradients: central finite differences, which
  verify the adjoint sweep and the stationary gradients.
- brute_force_oracle: a grid-search oracle for commuting instances, d <= 3.
- fw_gap: the surrogate Frank-Wolfe gap at a given profile, for
  hand-rolled Frank-Wolfe loops.
- kalman_forward_reference and lqg_gradient_reference: the per-step
  covariance-form Kalman sweep and adjoint sweep, with the trace cost as a
  loop, which the batched sweeps of lqg and gradient must match.
- random_covariance_reference: one random nominal covariance drawn and
  formed on its own, the per-matrix loop that instances' batched draw must
  reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from robustlqg.divergences import AmbiguityBall, DivergenceKind, MomentPair, membership
from robustlqg.errors import (
    ConditioningError,
    InvalidInputError,
    OracleError,
    UnsupportedDivergenceError,
)
from robustlqg.frank_wolfe import BallProfile, _oracle_pass, _profile_plan, _stacked
from robustlqg.gradient import GradientProfile, lqg_gradient
from robustlqg.lqg import CovarianceProfile, LqgSolution, SystemInstance, lqg_value
from robustlqg.matops import _check_finite, sym_sqrt, symmetrize
from robustlqg.oracles import OracleResult, _check_gradients, _stack


def zero_mean_feasibility_check(
    ball: AmbiguityBall, candidate: MomentPair, tol: float = 1e-9
) -> bool:
    """Truth of the implication: candidate in ball => (0, M) in ball.

    Requires a zero-mean nominal.
    """
    if np.linalg.norm(ball.nominal.mean) != 0.0:
        raise InvalidInputError("zero-mean check requires a zero-mean nominal")
    if not membership(ball, candidate, tol):
        return True
    zeroed = MomentPair(
        mean=np.zeros(candidate.dim), second_moment=candidate.second_moment
    )
    return membership(ball, zeroed, tol)


def _noise_sqrts(cov: CovarianceProfile):
    sq_X0 = sym_sqrt(cov.X0)
    sq_W = [sym_sqrt(Wt) for Wt in cov.W]
    sq_V = [sym_sqrt(Vt) for Vt in cov.V]
    return sq_X0, sq_W, sq_V


def simulate_closed_loop(
    sys: SystemInstance,
    cov: CovarianceProfile,
    gains: LqgSolution,
    num_samples: int,
    seed: int,
    t_dof: float | None = None,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the closed-loop cost under u_t = K_t xhat_t.

    The estimate is deterministic given the seed. Noise is Gaussian by
    default. With t_dof = nu > 2 every noise draw is multivariate Student-t
    with nu degrees of freedom instead, z * sqrt((nu - 2) / chi2_nu) for a
    Gaussian z, so it keeps its block's covariance: an elliptical law with
    the same first two moments. The state estimate follows
    the zero-mean MMSE recursion
      xhat_0 = L_0 y_0,
      xhat_{t+1} = Abar_t xhat_t + L_{t+1}(y_{t+1} - C_{t+1} Abar_t xhat_t),
    with Abar_t = A_t + B_t K_t. Covariances only need to be psd here.

    Returns:
        (mean_cost, std_error) over num_samples independent rollouts.
    """
    T, n = sys.T, sys.n
    if gains.K.shape != (T, sys.m, n):
        raise InvalidInputError("gains inconsistent with system dims")
    if t_dof is not None and not t_dof > 2.0:
        raise InvalidInputError("t_dof must exceed 2 for the noise to have a covariance")
    rng = np.random.default_rng(seed)
    sq_X0, sq_W, sq_V = _noise_sqrts(cov)
    N = int(num_samples)

    def draw(sq):
        z = rng.standard_normal((N, sq.shape[0])) @ sq.T
        if t_dof is None:
            return z
        return z * np.sqrt((t_dof - 2.0) / rng.chisquare(t_dof, N))[:, None]

    x = draw(sq_X0)
    costs = np.zeros(N)
    xhat_pred = np.zeros((N, n))
    for t in range(T):
        v = draw(sq_V[t])
        y = x @ sys.C[t].T + v
        if t == 0:
            xhat = y @ gains.L[0].T
        else:
            xhat = xhat_pred + (y - xhat_pred @ sys.C[t].T) @ gains.L[t].T
        u = xhat @ gains.K[t].T
        costs += np.einsum("ij,jk,ik->i", x, sys.Q[t], x)
        costs += np.einsum("ij,jk,ik->i", u, sys.R[t], u)
        w = draw(sq_W[t])
        x = x @ sys.A[t].T + u @ sys.B[t].T + w
        xhat_pred = xhat @ (sys.A[t] + sys.B[t] @ gains.K[t]).T
    costs += np.einsum("ij,jk,ik->i", x, sys.Q[T], x)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    return mean, stderr


def _sym_basis(d: int):
    """Symmetric coordinate basis E_ij = (e_i e_j^T + e_j e_i^T)/(1 + [i==j])."""
    for i in range(d):
        for j in range(i, d):
            E = np.zeros((d, d))
            if i == j:
                E[i, i] = 1.0
            else:
                E[i, j] = E[j, i] = 1.0
            yield i, j, E


def fd_block_gradients(value, blocks, step: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of value(blocks) along the symmetric basis
    of each block, with the step scaled per block by (1 + ||Sigma||_F)."""
    if step <= 0.0:
        raise InvalidInputError("step must be positive")
    grads = []
    for b, block in enumerate(blocks):
        d = block.shape[0]
        h = step * (1.0 + np.linalg.norm(block, "fro"))
        G = np.zeros((d, d))
        for i, j, E in _sym_basis(d):
            plus = list(blocks)
            minus = list(blocks)
            plus[b] = block + h * E
            minus[b] = block - h * E
            diff = (value(plus) - value(minus)) / (2.0 * h)
            if i == j:
                G[i, i] = diff
            else:
                G[i, j] = G[j, i] = diff / 2.0
        grads.append(G)
    return grads


def fd_gradient(
    sys: SystemInstance, cov: CovarianceProfile, step: float = 1e-5
) -> GradientProfile:
    """Central finite differences of the LQG value in every covariance block.

    Raises when a perturbed V block leaves the positive definite cone (step
    too large).
    """
    def value_at(blocks):
        profile = CovarianceProfile.from_blocks(blocks, sys.T)
        try:
            return lqg_value(sys, profile).cost
        except ConditioningError as exc:
            raise InvalidInputError(
                f"finite-difference step {step} leaves the feasible cone"
            ) from exc

    grads = fd_block_gradients(value_at, cov.blocks(), step)
    T = sys.T
    return GradientProfile(
        dX0=grads[0], dW=np.stack(grads[1 : T + 1]), dV=np.stack(grads[T + 1 :])
    )


def _scalar_upper_bound(kind: DivergenceKind, s_hat: float, rho: float) -> float:
    """Per-coordinate feasibility bound used to size brute-force grids."""
    if kind is DivergenceKind.WASSERSTEIN2:
        return (math.sqrt(s_hat) + rho) ** 2
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        # solve r - log r - 1 = 2 rho for r >= 1 by doubling + bisection
        target = 2.0 * rho
        hi = 2.0
        while hi - math.log(hi) - 1.0 < target:
            hi *= 2.0
        lo = 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - math.log(mid) - 1.0 < target:
                lo = mid
            else:
                hi = mid
        return hi * s_hat
    if kind is DivergenceKind.FISHER:
        b = 2.0 / s_hat + rho
        disc = max(b * b - 4.0 / s_hat**2, 0.0)
        return 0.5 * s_hat**2 * (b + math.sqrt(disc))
    raise UnsupportedDivergenceError(f"no grid bound for kind '{kind.value}'")


def _separable_divergence(kind: DivergenceKind, sig, s_hat):
    """Divergence of commuting (diagonal) covariances, vectorized over grids."""
    if kind is DivergenceKind.WASSERSTEIN2:
        return np.sqrt(sum((np.sqrt(sig[i]) - math.sqrt(s_hat[i])) ** 2 for i in range(len(s_hat))))
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        return 0.5 * sum(
            sig[i] / s_hat[i] - np.log(sig[i] / s_hat[i]) - 1.0 for i in range(len(s_hat))
        )
    if kind is DivergenceKind.FISHER:
        return sum(
            sig[i] / s_hat[i] ** 2 - 2.0 / s_hat[i] + 1.0 / sig[i] for i in range(len(s_hat))
        )
    raise UnsupportedDivergenceError(f"no separable form for kind '{kind.value}'")


def brute_force_oracle(
    Gamma: np.ndarray,
    ball: AmbiguityBall,
    grid_resolution: float = 1e-3,
) -> OracleResult:
    """Grid-search verification oracle for commuting instances, d <= 3.

    Parameterizes candidates as diagonal in the gradient eigenbasis (which
    must also diagonalize the nominal), scans a refining grid over the
    per-coordinate feasibility box, and certifies the winner via membership.
    """
    d = ball.nominal.dim
    if d > 3:
        raise UnsupportedDivergenceError("brute-force oracle supports d <= 3 only")
    # the gradient eigenbasis, with the rounding negatives clamped to zero
    lam, vecs = np.linalg.eigh(_check_gradients(_stack([Gamma], d, "gradient"))[0])
    lam = np.maximum(lam, 0.0)
    nominal = ball.nominal.cov
    if float(lam.max(initial=0.0)) <= 0.0 or ball.radius <= 0.0:
        return OracleResult(symmetrize(nominal), float("nan"), ball.radius <= 0.0, 1.0,
                            float("nan"), 0)

    sig_t = vecs.T @ nominal @ vecs
    offdiag = sig_t - np.diag(np.diag(sig_t))
    if np.abs(offdiag).max(initial=0.0) > 1e-8 * (1.0 + np.abs(sig_t).max()):
        raise InvalidInputError("brute-force oracle requires a commuting instance")
    s_hat = np.diag(sig_t).copy()
    rho = ball.radius

    # coordinates the objective ignores sit at the nominal (slack maximizer)
    active_idx = [i for i in range(d) if lam[i] > 1e-14 * lam.max()]
    fixed = s_hat.copy()

    los = np.full(d, 0.0)
    his = np.zeros(d)
    for i in range(d):
        his[i] = _scalar_upper_bound(ball.kind, s_hat[i], rho)
        los[i] = min(s_hat[i], 1e-6 * s_hat[i] + 1e-12)
        if ball.kind in (DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER):
            los[i] = 0.05 * s_hat[i]

    npts = 33
    best = fixed.copy()
    for _ in range(40):
        axes = [
            np.linspace(los[i], his[i], npts) if i in active_idx else np.array([fixed[i]])
            for i in range(d)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        div = _separable_divergence(ball.kind, mesh, s_hat)
        obj = sum(lam[i] * mesh[i] for i in range(d))
        obj = np.where(div <= rho + 1e-12, obj, -np.inf)
        flat = int(np.argmax(obj))
        idx = np.unravel_index(flat, obj.shape)
        best = np.array([axes[i][idx[i]] for i in range(d)])
        widths = np.array([his[i] - los[i] for i in range(d)])
        if widths.max(initial=0.0) / (npts - 1) <= grid_resolution:
            break
        for i in active_idx:
            cell = (his[i] - los[i]) / (npts - 1)
            los[i] = max(los[i], best[i] - 1.5 * cell)
            his[i] = min(his[i], best[i] + 1.5 * cell)

    sigma = symmetrize(vecs @ np.diag(best) @ vecs.T)
    pair = MomentPair.zero_mean(sigma)
    if not membership(ball, pair, 1e-8):
        raise OracleError("brute-force winner failed the membership certificate")
    div_val = ball.divergence(pair)
    return OracleResult(
        sigma_star=sigma,
        dual_gamma=float("nan"),
        active=abs(div_val - rho) <= max(1e-6, 10.0 * grid_resolution),
        subopt_delta_achieved=1.0,
        dual_bound=float("nan"),
        steps=0,
    )


def fw_gap(
    sys: SystemInstance,
    balls: BallProfile,
    current: CovarianceProfile,
) -> tuple[float, CovarianceProfile]:
    """Surrogate duality gap and oracle targets at the current profile.

    gap = sum_z <grad_z f, Sigma_z* - Sigma_z>; for concave f this upper
    bounds f* - f(current) (up to the oracles' fixed delta = 0.95 factor).
    """
    _, grad = lqg_gradient(sys, current)
    gap, (xw, v), *_ = _oracle_pass(_profile_plan(balls), _stacked(grad.dX0, grad.dW, grad.dV),
                                    _stacked(current.X0, current.W, current.V))
    return gap, CovarianceProfile(X0=xw[0], W=xw[1:], V=v)


def _chol_pd(M: np.ndarray, what: str) -> np.ndarray:
    """np.linalg.cholesky of the symmetrized matrix M, with the Kalman sweep's
    pd check: ConditioningError if it fails or a pivot falls below
    sqrt(1e-10) = 1e-5."""
    try:
        chol = np.linalg.cholesky(symmetrize(M))
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"{what} is not positive definite") from exc
    if np.diagonal(chol).min() < np.sqrt(1e-10):
        raise ConditioningError(f"{what} is numerically singular (Cholesky pivot < 1e-5)")
    return chol


def kalman_forward_reference(
    sys: SystemInstance, cov: CovarianceProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward Kalman covariance recursion; returns (Sigma_filt, Sigma_pred, L).

    Sigma_pred[0] = X0 and for t = 0..T-1, with S_t = Sigma_pred[t]:
      L_t = S_t C_t^T (C_t S_t C_t^T + V_t)^{-1}  (innovation gain; the one solve),
      Sigma_filt[t] = S_t - L_t C_t S_t,
      Sigma_pred[t+1] = A_t Sigma_filt[t] A_t^T + W_t.
    L_t equals the filter gain Sigma_filt[t] C_t^T V_t^{-1}. Every V_t must still
    be positive definite; ConditioningError names the singular V[t] or innovation
    covariance.
    """
    T, n, p = sys.T, sys.n, sys.p
    shapes = (cov.X0.shape, cov.W.shape[1:], cov.V.shape[1:])
    if cov.T != T or shapes != ((n, n), (n, n), (p, p)):
        raise InvalidInputError("covariance profile inconsistent with system dims")
    for t in range(T):
        _chol_pd(cov.V[t], f"V[{t}]")
    filt = np.empty((T, n, n))
    pred = np.empty((T + 1, n, n))
    L = np.empty((T, n, p))
    pred[0] = cov.X0
    for t in range(T):
        Ct, Vt = sys.C[t], cov.V[t]
        S = pred[t]
        SCt = S @ Ct.T
        chol = _chol_pd(Ct @ SCt + Vt, f"innovation covariance at t={t}")
        gain = L[t] = np.linalg.solve(chol.T, np.linalg.solve(chol, SCt.T)).T
        filt[t] = symmetrize(S - gain @ SCt.T)
        # the innovation update is used as printed; when rounding pushes it
        # off the psd cone, restabilize with the (equivalent) Joseph form
        lam_min = np.linalg.eigvalsh(filt[t]).min()
        if lam_min < 0.0:
            if lam_min < -1e-8 * (1.0 + np.linalg.norm(S)):
                raise ConditioningError(f"filter covariance lost psd at t={t}")
            closed = np.eye(n) - gain @ Ct
            filt[t] = symmetrize(closed @ S @ closed.T + gain @ Vt @ gain.T)
        pred[t + 1] = symmetrize(sys.A[t] @ filt[t] @ sys.A[t].T + cov.W[t])
    return _check_finite(filt, "filter covariance"), _check_finite(pred, "predicted covariance"), L


def _lqg_cost_reference(sys: SystemInstance, P, filt, pred) -> float:
    """The trace formula of lqg_value from the Riccati and filter sweeps."""
    cost = float(np.trace(P[0] @ pred[0]))
    for t in range(sys.T):
        cost += float(np.trace((sys.Q[t] - P[t]) @ filt[t]))
        cost += float(np.trace(P[t + 1] @ pred[t + 1]))
    return cost


def lqg_gradient_reference(
    sys: SystemInstance, P: np.ndarray, cov: CovarianceProfile
) -> tuple[float, GradientProfile]:
    """gradient._lqg_gradient as a per-step covariance-form sweep, given the
    Riccati sweep P of sys."""
    filt, pred, gains = kalman_forward_reference(sys, cov)
    T, n = sys.T, sys.n

    value = _lqg_cost_reference(sys, P, filt, pred)
    dW = np.empty_like(cov.W)
    dV = np.empty_like(cov.V)
    Sbar = P[T].copy()
    for t in range(T - 1, -1, -1):
        Ct, Kt = sys.C[t], gains[t]
        sigbar = symmetrize(sys.Q[t] - P[t] + sys.A[t].T @ Sbar @ sys.A[t])
        dW[t] = Sbar
        dV[t] = symmetrize(Kt.T @ sigbar @ Kt)
        closed = np.eye(n) - Kt @ Ct
        Sbar = symmetrize(P[t] + closed.T @ sigbar @ closed)
    return value, GradientProfile(dX0=_check_finite(Sbar, "adjoint sweep"), dW=dW, dV=dV)


def random_covariance_reference(d: int, rng: np.random.Generator) -> np.ndarray:
    """U diag(lam) U^T for one block: d x d normals, then lam uniform on
    [1, 2], from rng in that order; U is the QR factor of the normals with
    the signs of diag(R) moved into it."""
    M = rng.standard_normal((d, d))
    Qm, Rm = np.linalg.qr(M)
    Qm = Qm * np.sign(np.diag(Rm))
    lam = rng.uniform(1.0, 2.0, d)
    return (Qm * lam) @ Qm.T
