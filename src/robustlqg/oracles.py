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

oracle_pass solves the oracles of many blocks at once. It groups the blocks
by (divergence kind, block size) and runs each group on stacked (B, d, d)
arrays. One batched eigendecomposition per group (of Gamma for Wasserstein,
of the whitened gradient for KL) diagonalizes every block's dual equation,
so a bisection step costs O(d) per block and a few numpy calls per group.
The Fisher pencil does not commute, so each Fisher step takes one batched
eigendecomposition, shared by the divergence, dual and primal values. The
bisection runs in lockstep: every unfinished block takes its own midpoint
at each step and leaves the group once it certifies, so a block's result
does not depend on the rest of its group. wasserstein_oracle, kl_oracle,
fisher_oracle and solve_oracle are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .divergences import (
    AmbiguityBall,
    DivergenceKind,
    MomentPair,
    get_custom_divergence,
    membership,
)
from .errors import InvalidInputError, OracleError, UnsupportedDivergenceError
from .matops import EIG_CLAMP, _check_finite, _check_square, symmetrize

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
    dual_bound is phi(dual_gamma) relative to sigma_ref, an upper bound on
    max <Gamma, Sigma - sigma_ref> over the ball; a block that needs no
    bisection (zero gradient, rho = 0) reports its own primal value, and a
    custom linearization, which has no dual, reports nan. steps counts the
    bisection steps taken.
    """

    sigma_star: np.ndarray
    dual_gamma: float
    active: bool
    subopt_delta_achieved: float
    dual_bound: float
    steps: int


def _stack(mats: Sequence[np.ndarray], d: int, name: str) -> np.ndarray:
    """Stack d x d blocks into a (B, d, d) array, rejecting bad shapes and values."""
    for M in mats:
        if np.shape(M) != (d, d):
            raise InvalidInputError(f"{name} block must be {d}x{d}, got shape {np.shape(M)}")
    return _check_finite(np.array(mats, dtype=float), name)


def _clean_gradients(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrize, check psd up to -1e-8, clamp rounding negatives to zero."""
    vals, vecs = np.linalg.eigh(symmetrize(G))
    scale = 1.0 + np.abs(vals).max(axis=1)
    bad = vals[:, 0] < -_GRAD_CLAMP * scale
    if bad.any():
        raise InvalidInputError(
            f"gradient block is not psd: min eigenvalue {vals[bad, 0].min():.3e}"
        )
    vals = np.maximum(vals, 0.0)
    return (vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2), vals, vecs


class _Dual(NamedTuple):
    """The dual equations of a group of blocks.

    lo and hi bracket each block's gamma; scale is the magnitude of its trace
    inner products, which floors the delta criterion. data holds per-block
    arrays (block on axis 0), the last of them rho. divergence(g, *data)
    returns the divergence of Sigma(g) and a tuple aux of per-block arrays
    that values(g, *aux, *data) reuses to return (phi(g), primal value),
    both relative to sigma_ref. candidate(idx, g) returns Sigma(g) for the
    blocks idx, stacked.
    """

    lo: np.ndarray
    hi: np.ndarray
    scale: np.ndarray
    data: tuple
    divergence: Callable
    values: Callable
    candidate: Callable


def _w2_divergence(g, lam, s, c_ref, rho):
    gap = np.maximum(g[:, None] - lam, 1e-300)
    r = lam / gap
    return np.sqrt(np.maximum((s * r * r).sum(axis=1), 0.0)), (gap,)


def _w2_values(g, gap, lam, s, c_ref, rho):
    m = g[:, None] / gap
    phi = g * rho**2 + g * (s * lam / gap).sum(axis=1) - c_ref
    return phi, (lam * m * m * s).sum(axis=1) - c_ref


def _wasserstein(G, lam, vecs, nominal, rho, c_ref) -> _Dual:
    """Gelbrich ball: every function of g is diagonal in the gradient eigenbasis."""
    vecs_t = np.swapaxes(vecs, 1, 2)
    sig_t = vecs_t @ nominal @ vecs  # nominal in the gradient eigenbasis
    s = np.diagonal(sig_t, axis1=1, axis2=2).copy()
    lam1 = lam[:, -1]
    lo = lam1 * (1.0 + np.sqrt(np.maximum(s[:, -1], 0.0)) / rho)
    hi = lam1 * (1.0 + np.sqrt(np.trace(nominal, axis1=1, axis2=2)) / rho)

    def candidate(idx, g):
        m = g[:, None] / np.maximum(g[:, None] - lam[idx], 1e-300)
        inner = sig_t[idx] * (m[:, :, None] * m[:, None, :])
        return symmetrize(vecs[idx] @ inner @ vecs_t[idx])

    scale = np.abs(c_ref) + (lam * s).sum(axis=1)
    return _Dual(lo, hi, scale, (lam, s, c_ref, rho), _w2_divergence, _w2_values, candidate)


def _kl_divergence(g, lam, c_ref, rho):
    gap = np.maximum(g[:, None] - lam, 1e-300)
    logs = np.log1p(-lam / g[:, None])
    return 0.5 * (logs + lam / gap).sum(axis=1), (gap, logs)


def _kl_values(g, gap, logs, lam, c_ref, rho):
    phi = 2.0 * g * rho - g * logs.sum(axis=1) - c_ref
    return phi, (lam * g[:, None] / gap).sum(axis=1) - c_ref


def _kl(G, gvals, gvecs, nominal, rho, c_ref) -> _Dual:
    """KL ball: every function of g is diagonal after whitening with Shat^{1/2}."""
    d = nominal.shape[1]
    hat_vals, hat_vecs = np.linalg.eigh(nominal)
    if (hat_vals[:, 0] < -EIG_CLAMP).any():
        raise InvalidInputError(
            f"matrix is not psd: min eigenvalue {hat_vals[:, 0].min():.3e} < -{EIG_CLAMP:.0e}"
        )
    root = (hat_vecs * np.sqrt(np.maximum(hat_vals, 0.0))[:, None, :]) @ np.swapaxes(hat_vecs, 1, 2)
    root = symmetrize(root)
    lam, U = np.linalg.eigh(symmetrize(root @ G @ root))
    lam = np.maximum(lam, 0.0)
    lam1 = lam[:, -1]
    RU = root @ U
    RU_t = np.swapaxes(RU, 1, 2)

    def candidate(idx, g):
        m = g[:, None] / np.maximum(g[:, None] - lam[idx], 1e-300)
        return symmetrize((RU[idx] * m[:, None, :]) @ RU_t[idx])

    scale = np.abs(c_ref) + lam.sum(axis=1)
    return _Dual(lam1, lam1 * (1.0 + d / rho), scale, (lam, c_ref, rho), _kl_divergence,
                 _kl_values, candidate)


def _pencil(g, inv2, G):
    """Sigma(g) = (Shat^{-2} - Gamma/g)^{-1/2}, its eigenvalues' roots, and
    whether the pencil is pd (elsewhere the roots are placeholders)."""
    vals, vecs = np.linalg.eigh(symmetrize(inv2 - G / g[:, None, None]))
    pd = vals[:, 0] > 0.0
    roots = np.sqrt(np.where(pd[:, None], vals, 1.0))
    return (vecs / roots[:, None, :]) @ np.swapaxes(vecs, 1, 2), roots, pd


def _fisher_divergence(g, inv2, G, tr_inv_hat, c_ref, rho):
    sigma, roots, pd = _pencil(g, inv2, G)
    div = (inv2 * sigma).sum(axis=(1, 2)) - 2.0 * tr_inv_hat + roots.sum(axis=1)
    div = np.where(pd, div, np.inf)
    return div, (div, sigma)


def _fisher_values(g, div, sigma, inv2, G, tr_inv_hat, c_ref, rho):
    prim = (G * symmetrize(sigma)).sum(axis=(1, 2)) - c_ref
    return prim - g * (div - rho), prim


def _fisher(G, gvals, gvecs, nominal, rho, c_ref) -> _Dual:
    """Fisher ball: one pencil eigendecomposition per evaluation; the upper
    bracket end doubles until every block's candidate is strictly feasible."""
    hat_vals, hat_vecs = np.linalg.eigh(nominal)
    if (hat_vals[:, 0] <= 0.0).any():
        raise InvalidInputError("Fisher oracle needs a positive definite nominal")
    inv2 = (hat_vecs / hat_vals[:, None, :] ** 2) @ np.swapaxes(hat_vecs, 1, 2)  # Shat^{-2}
    data = (inv2, G, (1.0 / hat_vals).sum(axis=1), c_ref, rho)

    lo = np.linalg.eigvalsh(symmetrize(nominal @ G @ nominal))[:, -1]
    hi = 2.0 * lo
    grow = np.arange(lo.size)
    for _ in range(60):
        div, _ = _fisher_divergence(hi[grow], *(a[grow] for a in data))
        grow = grow[~(div < rho[grow])]
        if grow.size == 0:
            break
        hi[grow] *= 2.0
    else:
        raise OracleError("fisher oracle could not bracket the dual variable")

    def candidate(idx, g):
        return symmetrize(_pencil(g, inv2[idx], G[idx])[0])

    scale = np.abs(c_ref) + (G * nominal).sum(axis=(1, 2))
    return _Dual(lo, hi, scale, data, _fisher_divergence, _fisher_values, candidate)


_SETUPS = {
    DivergenceKind.WASSERSTEIN2: _wasserstein,
    DivergenceKind.KULLBACK_LEIBLER: _kl,
    DivergenceKind.FISHER: _fisher,
}


def _bisect(kind: str, dual: _Dual, blocks: np.ndarray, delta: float):
    """Lockstep bisection on the blocks of a group; divergence(g) must decrease.

    Each block keeps its own bracket and takes its midpoint every step; it
    is accepted once its candidate is feasible to rho + 1e-8 (the bracket
    ends are tight for identity-like gradients, so the optimal gamma can sit
    exactly on one), active to 1e-6, and meets the delta criterion, which
    is floored at 1e-9 * max(1, scale) because it cannot certify
    improvements below rounding level (e.g. when the reference already sits
    at the optimum). Accepted blocks leave the arrays of the live ones.
    Returns (gamma, delta_achieved, dual_bound, steps) aligned with blocks.
    """
    lo, hi = dual.lo[blocks], dual.hi[blocks]
    floor = 1e-9 * np.maximum(1.0, dual.scale[blocks])
    data = tuple(a[blocks] for a in dual.data)
    gamma, got, bound = np.empty(blocks.size), np.ones(blocks.size), np.empty(blocks.size)
    steps = np.zeros(blocks.size, dtype=int)

    def accept(pos, g, div, aux, parts, n_steps):
        """Settle the blocks pos, with per-block arrays parts, whose Sigma(g)
        passes the acceptance test; return their indices into pos."""
        rho = parts[-1]
        near = np.abs(div - rho) <= _ACTIVITY_TOL
        if not np.count_nonzero(near):
            return near.nonzero()[0]
        j = np.flatnonzero(near & (div <= rho + 1e-8))
        phi, prim = dual.values(g[j], *(a[j] for a in aux + parts))
        passed = prim + floor[pos[j]] >= delta * phi
        j, phi, prim = j[passed], phi[passed], prim[passed]
        b = pos[j]
        certified = phi > floor[b]
        got[b] = np.where(certified, np.minimum(1.0, prim / np.where(certified, phi, 1.0)), 1.0)
        gamma[b], bound[b], steps[b] = g[j], phi, n_steps
        return j

    # bounds collapse (always the case for scalars under Wasserstein): the
    # common point is gamma_star, no bisection needed
    collapsed = hi - lo <= 1e-14 * np.maximum(1.0, hi)
    if np.count_nonzero(collapsed):
        pos = np.flatnonzero(collapsed)
        g, parts = hi[pos], tuple(a[pos] for a in data)
        div, aux = dual.divergence(g, *parts)
        rest = np.setdiff1d(np.arange(pos.size), accept(pos, g, div, aux, parts, 0))
        if rest.size:  # kept all the same, with delta_achieved 1
            gamma[pos[rest]] = g[rest]
            bound[pos[rest]] = dual.values(g[rest], *(a[rest] for a in aux + parts))[0]

    live = np.flatnonzero(~collapsed)
    lo, hi = lo[live], hi[live]
    tol = 1e-12 * np.maximum(1.0, hi)
    parts = tuple(a[live] for a in data)
    for step in range(1, _MAX_BISECT + 1):
        if live.size == 0:
            return gamma, got, bound, steps
        g = 0.5 * (lo + hi)
        div, aux = dual.divergence(g, *parts)
        up = div > parts[-1]
        np.copyto(lo, g, where=up)
        np.copyto(hi, g, where=~up)
        done = accept(live, g, div, aux, parts, step)
        narrow = hi - lo <= tol
        if np.count_nonzero(narrow):
            # feasible side of a collapsed bracket
            k = np.setdiff1d(narrow.nonzero()[0], done)
            sub = tuple(a[k] for a in parts)
            div, aux = dual.divergence(hi[k], *sub)
            done = np.concatenate((done, k[accept(live[k], hi[k], div, aux, sub, step)]))
        if done.size:
            keep = np.ones(live.size, dtype=bool)
            keep[done] = False
            live, lo, hi, tol = live[keep], lo[keep], hi[keep], tol[keep]
            parts = tuple(a[keep] for a in parts)
    if live.size:
        raise OracleError(f"{kind} oracle bisection failed to certify in {_MAX_BISECT} steps")
    return gamma, got, bound, steps


def _solve_group(kind, G, nominal, rho, sigma_ref, floors, delta) -> list[OracleResult]:
    """Oracles of B blocks of one built-in kind and size, on (B, d, d) stacks.

    Blocks with a zero (clamped) gradient return the nominal, inactive;
    blocks with rho = 0 return the nominal, active. Wasserstein outputs
    must dominate their block's lam_floor * I, which g(gI - Gamma)^{-1}
    guarantees; the check raises OracleError if rounding breaks it.
    """
    G, gvals, gvecs = _clean_gradients(G)
    nominal = symmetrize(nominal)
    c_ref = (G * sigma_ref).sum(axis=(1, 2))
    sigma = nominal.copy()
    gamma = np.full(rho.size, np.nan)
    got = np.ones(rho.size)
    bound = (G * nominal).sum(axis=(1, 2)) - c_ref  # primal value of the nominal
    steps = np.zeros(rho.size, dtype=int)
    nonzero = gvals[:, -1] > 0.0
    active = nonzero & (rho <= 0.0)
    live = np.flatnonzero(nonzero & (rho > 0.0))
    if live.size:
        dual = _SETUPS[kind](G[live], gvals[live], gvecs[live], nominal[live], rho[live],
                             c_ref[live])
        # lo is a positive multiple of the top eigenvalue of a transformed
        # gradient; where that is zero (KL with a singular nominal) the
        # objective is flat over the ball and the nominal is optimal
        todo = np.flatnonzero(dual.lo > 0.0)
        blocks = live[todo]
        gamma[blocks], got[blocks], bound[blocks], steps[blocks] = _bisect(
            kind.value, dual, todo, delta
        )
        sigma[blocks] = dual.candidate(todo, gamma[blocks])
        active[blocks] = True
        if kind is DivergenceKind.WASSERSTEIN2:
            k = blocks[floors[blocks] > 0.0]
            if k.size and (np.linalg.eigvalsh(sigma[k])[:, 0] < floors[k] - 1e-10).any():
                raise OracleError("wasserstein oracle output violates its eigenvalue floor")
    return [
        OracleResult(sigma[i], float(gamma[i]), bool(active[i]), float(got[i]),
                     float(bound[i]), int(steps[i]))
        for i in range(rho.size)
    ]


def _custom_oracle(ball: AmbiguityBall, Gamma, sigma_ref, delta: float) -> OracleResult:
    """Oracle of a ball with no built-in one: its registered linearization."""
    if ball.kind is not DivergenceKind.MOMENT_CUSTOM:
        raise UnsupportedDivergenceError(
            f"no linearization oracle for divergence kind '{ball.kind.value}'"
        )
    handle = get_custom_divergence(ball.custom_name)
    if handle.linearization is None:
        raise UnsupportedDivergenceError(
            f"divergence '{ball.custom_name}' has no linearization oracle"
        )
    sigma = handle.linearization(Gamma, ball.nominal, ball.radius, sigma_ref, delta)
    sigma = symmetrize(_check_square(sigma, f"linearization output of '{ball.custom_name}'"))
    return OracleResult(
        sigma_star=sigma,
        dual_gamma=float("nan"),
        active=membership(ball, MomentPair.zero_mean(sigma), 1e-8),
        subopt_delta_achieved=delta,
        dual_bound=float("nan"),
        steps=0,
    )


def oracle_pass(
    balls: Sequence[AmbiguityBall],
    grads: Sequence[np.ndarray],
    refs: Sequence[np.ndarray],
    floors: Sequence[float],
    delta: float = 0.95,
) -> list[OracleResult]:
    """Linearization oracle of every block, in block order.

    Block z maximizes <grads[z], Sigma - refs[z]> over balls[z]; floors[z]
    is the eigenvalue floor a Wasserstein output must keep. Built-in kinds
    are solved group by group on stacked arrays; a custom ball calls its
    registered linearization.
    """
    if not len(grads) == len(refs) == len(floors) == len(balls):
        raise InvalidInputError("oracle_pass needs one gradient, reference and floor per ball")
    results: list = [None] * len(balls)
    groups: dict = {}
    for i, ball in enumerate(balls):
        if ball.kind in ORACLE_KINDS:
            groups.setdefault((ball.kind, ball.nominal.dim), []).append(i)
        else:
            results[i] = _custom_oracle(ball, grads[i], refs[i], delta)
    for (kind, d), idx in groups.items():
        solved = _solve_group(
            kind,
            _stack([grads[i] for i in idx], d, "gradient"),
            np.stack([balls[i].nominal.cov for i in idx]),
            np.array([balls[i].radius for i in idx], dtype=float),
            _stack([refs[i] for i in idx], d, "reference"),
            np.array([floors[i] for i in idx], dtype=float),
            delta,
        )
        for i, res in zip(idx, solved):
            results[i] = res
    return results


def _solve_one(kind, Gamma, nominal_cov, rho, sigma_ref, lam_floor, delta) -> OracleResult:
    nominal = _check_square(nominal_cov, "nominal")
    d = nominal.shape[0]
    return _solve_group(
        kind, _stack([Gamma], d, "gradient"), nominal[None], np.array([float(rho)]),
        _stack([sigma_ref], d, "reference"), np.array([float(lam_floor)]), delta,
    )[0]


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
    return _solve_one(DivergenceKind.WASSERSTEIN2, Gamma, nominal_cov, rho, sigma_ref,
                      lam_floor, delta)


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
    return _solve_one(DivergenceKind.KULLBACK_LEIBLER, Gamma, nominal_cov, rho, sigma_ref,
                      0.0, delta)


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
    return _solve_one(DivergenceKind.FISHER, Gamma, nominal_cov, rho, sigma_ref, 0.0, delta)


def solve_oracle(
    ball: AmbiguityBall,
    Gamma: np.ndarray,
    sigma_ref: np.ndarray,
    lam_floor: float = 0.0,
    delta: float = 0.95,
) -> OracleResult:
    """The oracle for the ball's divergence kind: oracle_pass on one block."""
    return oracle_pass([ball], [Gamma], [sigma_ref], [lam_floor], delta)[0]


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
    _, lam, vecs = _clean_gradients(_stack([Gamma], d, "gradient"))
    lam, vecs = lam[0], vecs[0]
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
