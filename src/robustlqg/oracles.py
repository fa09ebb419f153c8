"""Frank-Wolfe linearization oracles over divergence balls.

Each oracle maximizes <Gamma, Sigma - Sigma_ref> over the set of zero-mean
Gaussian covariances within divergence radius rho of a nominal covariance.
Strong duality reduces each problem to a univariate algebraic equation in a
dual variable gamma, solved by bisection:

  Wasserstein:  Sigma(g) = g^2 (gI - Gamma)^{-1} Shat (gI - Gamma)^{-1}
  KL:           Sigma(g) = g (g Shat^{-1} - Gamma)^{-1}
  Fisher:       Sigma(g) = (Shat^{-2} - Gamma/g)^{-1/2}

In all three cases the divergence of Sigma(g) from the nominal decreases
monotonically in g, the dual objective phi(g) upper-bounds the primal
optimum for every bracketed g, and bisection stops once the candidate is
feasible, the constraint is active to 1e-6, and the Algorithm-style
delta-criterion <Sigma(g) - Sigma_ref, Gamma> >= delta * phi(g) holds.

All matrix functions of gamma are evaluated through one eigendecomposition
per call (of Gamma for Wasserstein, of the whitened gradient for KL), so a
bisection step costs O(d); the Fisher candidate needs a fresh
eigendecomposition per step because its pencil does not commute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .divergences import AmbiguityBall, DivergenceKind, MomentPair, membership
from .errors import InvalidInputError, OracleError, UnsupportedDivergenceError
from .matops import sym_sqrt, symmetrize

# kinds with a built-in oracle; a custom kind needs a registered linearization
ORACLE_KINDS = frozenset(
    {DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER}
)

_GRAD_CLAMP = 1e-8
_MAX_BISECT = 200
_ACTIVITY_TOL = 1e-6


@dataclass(frozen=True)
class OracleResult:
    """Output of a linearization oracle.

    sigma_star is feasible in the ball; active marks a tight constraint;
    subopt_delta_achieved is the certified fraction of the dual bound.
    """

    sigma_star: np.ndarray
    dual_gamma: float
    active: bool
    subopt_delta_achieved: float


def _clean_gradient(Gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrize, check psd up to -1e-8, clamp rounding negatives to zero."""
    Gamma = symmetrize(Gamma)
    vals, vecs = np.linalg.eigh(Gamma)
    scale = 1.0 + float(np.abs(vals).max(initial=0.0))
    if vals.min(initial=0.0) < -_GRAD_CLAMP * scale:
        raise InvalidInputError(
            f"gradient block is not psd: min eigenvalue {vals.min():.3e}"
        )
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.T, vals, vecs


def _trivial(nominal: np.ndarray, active: bool) -> OracleResult:
    return OracleResult(
        sigma_star=symmetrize(nominal),
        dual_gamma=float("nan"),
        active=active,
        subopt_delta_achieved=1.0,
    )


def _run_bisection(
    lo: float,
    hi: float,
    rho: float,
    delta: float,
    candidate: Callable[[float], np.ndarray],
    divergence: Callable[[float], float],
    dual_value: Callable[[float], float],
    primal_value: Callable[[float], float],
    kind: str,
    scale: float = 1.0,
) -> tuple[np.ndarray, float, float]:
    """Shared bisection driver; divergence(gamma) must be decreasing.

    scale should reflect the magnitude of the trace inner products involved;
    it floors the delta-criterion, which cannot certify improvements below
    rounding level (e.g. when the reference already sits at the optimum).
    Returns (sigma, gamma, delta_achieved).
    """
    hi0 = hi
    noise_floor = 1e-9 * max(1.0, scale)

    def accept(g: float) -> Optional[float]:
        div = divergence(g)
        # the bracket bounds are tight for identity-like gradients, so the
        # optimal gamma can sit exactly on an endpoint: allow the documented
        # 1e-8 feasibility slack rather than strict containment
        if div > rho + 1e-8 or abs(div - rho) > _ACTIVITY_TOL:
            return None
        phi = dual_value(g)
        prim = primal_value(g)
        if prim + noise_floor < delta * phi:
            return None
        return min(1.0, prim / phi) if phi > noise_floor else 1.0

    if hi - lo <= 1e-14 * max(1.0, hi):
        # bounds collapse (always the case for scalars under Wasserstein):
        # the common point is gamma_star, no bisection needed
        g = hi
        got = accept(g)
        return candidate(g), g, got if got is not None else 1.0

    for _ in range(_MAX_BISECT):
        g = 0.5 * (lo + hi)
        div = divergence(g)
        if div > rho:
            lo = g
        else:
            hi = g
        got = accept(g)
        if got is not None:
            return candidate(g), g, got
        if hi - lo <= 1e-12 * max(1.0, hi0):
            g = hi  # feasible side of a collapsed bracket
            got = accept(g)
            if got is not None:
                return candidate(g), g, got
    raise OracleError(f"{kind} oracle bisection failed to certify in {_MAX_BISECT} steps")


def wasserstein_oracle(
    Gamma: np.ndarray,
    nominal_cov: np.ndarray,
    rho: float,
    sigma_ref: np.ndarray,
    lam_floor: float = 0.0,
    delta: float = 0.95,
) -> OracleResult:
    """Maximize <Gamma, Sigma - sigma_ref> over the Gelbrich ball.

    The optimum is Sigma = g^2 (gI - Gamma)^{-1} Shat (gI - Gamma)^{-1} with g
    bisected between the closed-form bounds
    lam1 (1 + sqrt(p1' Shat p1)/rho) and lam1 (1 + sqrt(Tr Shat)/rho).
    The output dominates lam_floor * I automatically because g(gI-Gamma)^{-1}
    has eigenvalues >= 1.
    """
    Gamma, lam, vecs = _clean_gradient(Gamma)
    nominal_cov = symmetrize(nominal_cov)
    if float(lam.max(initial=0.0)) <= 0.0:
        return _trivial(nominal_cov, active=False)
    if rho <= 0.0:
        return _trivial(nominal_cov, active=True)

    sig_t = vecs.T @ nominal_cov @ vecs  # nominal in the gradient eigenbasis
    s = np.diag(sig_t).copy()
    lam1 = float(lam[-1])
    c_ref = float(np.sum(Gamma * sigma_ref))

    lo = lam1 * (1.0 + math.sqrt(max(s[-1], 0.0)) / rho)
    hi = lam1 * (1.0 + math.sqrt(float(np.trace(nominal_cov))) / rho)

    def mult(g: float) -> np.ndarray:
        return g / np.maximum(g - lam, 1e-300)

    def divergence(g: float) -> float:
        r = lam / np.maximum(g - lam, 1e-300)
        return math.sqrt(max(float(np.sum(s * r * r)), 0.0))

    def dual_value(g: float) -> float:
        return g * rho**2 + g * float(np.sum(s * lam / np.maximum(g - lam, 1e-300))) - c_ref

    def primal_value(g: float) -> float:
        m = mult(g)
        return float(np.sum(lam * m * m * s)) - c_ref

    def candidate(g: float) -> np.ndarray:
        m = mult(g)
        return symmetrize(vecs @ (sig_t * np.outer(m, m)) @ vecs.T)

    scale = abs(c_ref) + float(np.sum(lam * s))
    sigma, g, got = _run_bisection(
        lo, hi, rho, delta, candidate, divergence, dual_value, primal_value,
        "wasserstein", scale,
    )
    if lam_floor > 0.0 and float(np.linalg.eigvalsh(sigma).min()) < lam_floor - 1e-10:
        raise OracleError("wasserstein oracle output violates its eigenvalue floor")
    return OracleResult(sigma_star=sigma, dual_gamma=g, active=True, subopt_delta_achieved=got)


def kl_oracle(
    Gamma: np.ndarray,
    nominal_cov: np.ndarray,
    rho: float,
    sigma_ref: np.ndarray,
    delta: float = 0.95,
) -> OracleResult:
    """Maximize <Gamma, Sigma - sigma_ref> over the KL-type divergence ball.

    The optimum is Sigma = g (g Shat^{-1} - Gamma)^{-1} where g solves
    2 rho = logdet(I - Shat Gamma / g) + Tr((gI - Shat Gamma)^{-1} Shat Gamma)
    inside the bracket (lam1, lam1 (1 + d/rho)], lam1 the top eigenvalue of
    Shat^{1/2} Gamma Shat^{1/2}.
    """
    Gamma, gvals, _ = _clean_gradient(Gamma)
    nominal_cov = symmetrize(nominal_cov)
    if float(gvals.max(initial=0.0)) <= 0.0:
        return _trivial(nominal_cov, active=False)
    if rho <= 0.0:
        return _trivial(nominal_cov, active=True)

    d = nominal_cov.shape[0]
    root_hat = sym_sqrt(nominal_cov)
    lam, U = np.linalg.eigh(symmetrize(root_hat @ Gamma @ root_hat))
    lam = np.maximum(lam, 0.0)
    lam1 = float(lam[-1])
    if lam1 <= 0.0:
        return _trivial(nominal_cov, active=False)
    c_ref = float(np.sum(Gamma * sigma_ref))

    lo = lam1
    hi = lam1 * (1.0 + d / rho)
    RU = root_hat @ U

    def divergence(g: float) -> float:
        x = lam / np.maximum(g - lam, 1e-300)
        return 0.5 * float(np.sum(np.log1p(-lam / g) + x))

    def dual_value(g: float) -> float:
        return 2.0 * g * rho - g * float(np.sum(np.log1p(-lam / g))) - c_ref

    def primal_value(g: float) -> float:
        return float(np.sum(lam * g / np.maximum(g - lam, 1e-300))) - c_ref

    def candidate(g: float) -> np.ndarray:
        return symmetrize((RU * (g / np.maximum(g - lam, 1e-300))) @ RU.T)

    scale = abs(c_ref) + float(np.sum(lam))
    sigma, g, got = _run_bisection(
        lo, hi, rho, delta, candidate, divergence, dual_value, primal_value, "kl", scale
    )
    return OracleResult(sigma_star=sigma, dual_gamma=g, active=True, subopt_delta_achieved=got)


def fisher_oracle(
    Gamma: np.ndarray,
    nominal_cov: np.ndarray,
    rho: float,
    sigma_ref: np.ndarray,
    delta: float = 0.95,
) -> OracleResult:
    """Maximize <Gamma, Sigma - sigma_ref> over the Fisher divergence ball.

    Stationarity of the Lagrangian inverts the Fisher gradient
    Shat^{-2} - Sigma^{-2} to Sigma(g) = (Shat^{-2} - Gamma/g)^{-1/2}; g is
    bisected on the constraint value, with the lower bracket end at
    lam_max(Shat Gamma Shat) (where the pencil loses definiteness) and the
    upper end grown by doubling until the candidate is strictly feasible.
    """
    Gamma, gvals, _ = _clean_gradient(Gamma)
    nominal_cov = symmetrize(nominal_cov)
    if float(gvals.max(initial=0.0)) <= 0.0:
        return _trivial(nominal_cov, active=False)
    if rho <= 0.0:
        return _trivial(nominal_cov, active=True)

    hat_vals, hat_vecs = np.linalg.eigh(nominal_cov)
    if hat_vals.min() <= 0.0:
        raise InvalidInputError("Fisher oracle needs a positive definite nominal")
    inv2 = (hat_vecs / hat_vals**2) @ hat_vecs.T  # Shat^{-2}
    tr_inv_hat = float(np.sum(1.0 / hat_vals))
    c_ref = float(np.sum(Gamma * sigma_ref))

    lo = float(np.linalg.eigvalsh(symmetrize(nominal_cov @ Gamma @ nominal_cov)).max())

    def eig_candidate(g: float):
        vals, vecs = np.linalg.eigh(symmetrize(inv2 - Gamma / g))
        if vals.min() <= 0.0:
            return None
        return vals, vecs

    def sigma_of(g: float) -> np.ndarray:
        vals, vecs = eig_candidate(g)
        return symmetrize((vecs / np.sqrt(vals)) @ vecs.T)

    def divergence(g: float) -> float:
        pair = eig_candidate(g)
        if pair is None:
            return float("inf")
        vals, vecs = pair
        sigma = (vecs / np.sqrt(vals)) @ vecs.T
        return float(np.sum(inv2 * sigma)) - 2.0 * tr_inv_hat + float(np.sum(np.sqrt(vals)))

    def dual_value(g: float) -> float:
        sigma = sigma_of(g)
        return float(np.sum(Gamma * sigma)) - g * (divergence(g) - rho) - c_ref

    def primal_value(g: float) -> float:
        return float(np.sum(Gamma * sigma_of(g))) - c_ref

    hi = 2.0 * lo
    for _ in range(60):
        if divergence(hi) < rho:
            break
        hi *= 2.0
    else:
        raise OracleError("fisher oracle could not bracket the dual variable")

    scale = abs(c_ref) + float(np.sum(Gamma * nominal_cov))
    sigma, g, got = _run_bisection(
        lo, hi, rho, delta, sigma_of, divergence, dual_value, primal_value, "fisher", scale
    )
    return OracleResult(sigma_star=sigma, dual_gamma=g, active=True, subopt_delta_achieved=got)


def solve_oracle(
    ball: AmbiguityBall,
    Gamma: np.ndarray,
    sigma_ref: np.ndarray,
    lam_floor: float = 0.0,
    delta: float = 0.95,
) -> OracleResult:
    """Dispatch to the analytic oracle for the ball's divergence kind."""
    nominal = ball.nominal.cov
    if ball.kind is DivergenceKind.WASSERSTEIN2:
        return wasserstein_oracle(Gamma, nominal, ball.radius, sigma_ref, lam_floor, delta)
    if ball.kind is DivergenceKind.KULLBACK_LEIBLER:
        return kl_oracle(Gamma, nominal, ball.radius, sigma_ref, delta)
    if ball.kind is DivergenceKind.FISHER:
        return fisher_oracle(Gamma, nominal, ball.radius, sigma_ref, delta)
    if ball.kind is DivergenceKind.MOMENT_CUSTOM:
        from .divergences import get_custom_divergence

        handle = get_custom_divergence(ball.custom_name)
        if handle.linearization is None:
            raise UnsupportedDivergenceError(
                f"divergence '{ball.custom_name}' has no linearization oracle"
            )
        sigma = handle.linearization(Gamma, ball.nominal, ball.radius, sigma_ref, delta)
        return OracleResult(
            sigma_star=symmetrize(sigma),
            dual_gamma=float("nan"),
            active=membership(ball, MomentPair.zero_mean(sigma), 1e-8),
            subopt_delta_achieved=delta,
        )
    raise UnsupportedDivergenceError(
        f"no linearization oracle for divergence kind '{ball.kind.value}'"
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
    Gamma, lam, vecs = _clean_gradient(Gamma)
    nominal = ball.nominal.cov
    if float(lam.max(initial=0.0)) <= 0.0 or ball.radius <= 0.0:
        return _trivial(nominal, active=ball.radius <= 0.0)

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
    )
