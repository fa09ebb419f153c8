"""Frank-Wolfe linearization oracles over divergence balls.

Each oracle maximizes <Gamma, Sigma - Sigma_ref> over the set of zero-mean
Gaussian covariances within divergence radius rho of a nominal covariance.
Strong duality reduces each problem to a univariate algebraic equation in a
dual variable gamma:

  Wasserstein:  Sigma(g) = g^2 (gI - Gamma)^{-1} Shat (gI - Gamma)^{-1}
  KL:           Sigma(g) = g (g Shat^{-1} - Gamma)^{-1}
  Fisher:       Sigma(g) = (Shat^{-2} - Gamma/g)^{-1/2}

In all three cases the divergence of Sigma(g) from the nominal decreases
monotonically in g, and the dual objective phi(g) upper-bounds the primal
optimum for every bracketed g. Every kind brackets its root of
div(g) = rho in closed form, and one search serves them all: safeguarded
Newton on the order-matched reciprocal rho^{-1/q} - div(g)^{-1/q}, where
div decays like g^{-q} (q = 1 for Wasserstein, where it is the
trust-region secular equation of More & Sorensen, 1983; q = 2 for KL and
Fisher), so the form is close to linear in g. A bisection step replaces
Newton whenever it would leave the bracket. The search stops once the
candidate is feasible, the constraint is active to 1e-6, and the
Algorithm-style delta-criterion <Sigma(g) - Sigma_ref, Gamma> >=
delta * phi(g) holds; a block that does not certify raises OracleError, so
every returned result is certified.

A pass solves the oracles of many blocks at once. Its blocks come as
stacks of (k, d, d) arrays; it groups them by (divergence kind, block
size), gathers each group's rows with at most one concatenate, and runs
each group on stacked (B, d, d) arrays. The gradients are checked psd by
their eigenvalues, and decomposed only as far as a kind reads them: one
batched eigendecomposition per group (of Gamma for Wasserstein, of the
whitened gradient for KL) diagonalizes every block's dual equation, so a
divergence and its slope cost O(d) per block and a few numpy calls per
group. The Fisher pencil does not commute, so each Fisher evaluation takes
one batched eigendecomposition, shared by the divergence, its slope
(Daleckii-Krein, in the pencil eigenbasis) and the dual and primal values.
The search runs in lockstep: every unfinished block takes its own step at
each iteration and leaves the group once it certifies, so a block's result
does not depend on the rest of its group. What depends only on the balls is
planned once (_plan): the groups and the stack rows they gather, their
stacked nominals, radii and floors, and the nominal factors the setups read
(KL: eigenvalues and Shat^{1/2}; Fisher: eigenvalues, Shat^{-2} and
Tr Shat^{-1}). _run runs a plan and returns the targets stacked like the
references, with per-block arrays of the other results; it takes its
stacks as checked. A Frank-Wolfe solve plans once and runs the plan at
every iteration on its own arrays. The public wrappers check their inputs
(shape, finiteness), run the same _run and build the OracleResult objects:
oracle_pass plans and runs once, and wasserstein_oracle, kl_oracle,
fisher_oracle and solve_oracle are passes of one block.
"""

from __future__ import annotations

import itertools
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
_MAX_STEPS = 200
_ACTIVITY_TOL = 1e-6


@dataclass(frozen=True)
class OracleResult:
    """Output of a linearization oracle.

    sigma_star is feasible in the ball; active marks a tight constraint;
    subopt_delta_achieved is the certified fraction of the dual bound.
    dual_bound is phi(dual_gamma) relative to sigma_ref, an upper bound on
    max <Gamma, Sigma - sigma_ref> over the ball; a block that needs no
    root search (zero gradient, rho = 0) reports its own primal value, and a
    custom linearization, which has no dual, reports nan. steps counts the
    divergence evaluations of the root search (Newton or bisection steps).
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


def _clean_gradients(kind: DivergenceKind, G: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Symmetrize a (B, d, d) gradient stack and check it psd up to -1e-8.

    Each block is decomposed only as far as kind's setup reads it. Returns
    (G, top eigenvalue per block clamped at zero, eig): for Wasserstein
    eig = (eigenvalues, eigenvectors) with the rounding negatives clamped
    to zero and G rebuilt from them; for KL and Fisher, whose setups
    decompose a transformed gradient and clamp that, eig = () and G is the
    symmetrized gradient, checked by its eigenvalues alone.
    """
    G = symmetrize(G)
    if kind is DivergenceKind.WASSERSTEIN2:
        vals, vecs = np.linalg.eigh(G)
    else:
        vals, vecs = np.linalg.eigvalsh(G), None
    scale = 1.0 + np.abs(vals).max(axis=1)
    bad = vals[:, 0] < -_GRAD_CLAMP * scale
    if bad.any():
        raise InvalidInputError(
            f"gradient block is not psd: min eigenvalue {vals[bad, 0].min():.3e}"
        )
    vals = np.maximum(vals, 0.0)
    if vecs is None:
        return G, vals[:, -1], ()
    return (vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2), vals[:, -1], (vals, vecs)


class _Dual(NamedTuple):
    """The dual equations of a group of blocks.

    lo and hi bracket each block's gamma in closed form; scale is the
    magnitude of its trace inner products, which floors the delta criterion.
    data holds per-block arrays (block on axis 0), the last of them rho.
    divergence(g, *data) returns the divergence of Sigma(g), its derivative
    in g and a tuple aux of per-block arrays that values(g, *aux, *data)
    reuses to return (phi(g), primal value), both relative to sigma_ref.
    candidate(idx, g, aux) returns Sigma(g) for the blocks idx, stacked,
    given the aux of their evaluation at g. order is the kind's constant q:
    div(Sigma(g)) decays like g^{-q} for large g (1 for Wasserstein, whose
    divergence is a distance, 2 for KL and Fisher, which are quadratic in
    Sigma - Shat), so div^{-1/q} is close to linear in g.
    """

    lo: np.ndarray
    hi: np.ndarray
    scale: np.ndarray
    data: tuple
    divergence: Callable
    values: Callable
    candidate: Callable
    order: int


def _w2_divergence(g, lam, s, c_ref, rho):
    gap = np.maximum(g[:, None] - lam, 1e-300)
    r = lam / gap
    terms = s * r * r
    div = np.sqrt(np.maximum(terms.sum(axis=1), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = -(terms / gap).sum(axis=1) / div
    return div, slope, (gap,)


def _w2_values(g, gap, lam, s, c_ref, rho):
    m = g[:, None] / gap
    phi = g * rho**2 + g * (s * lam / gap).sum(axis=1) - c_ref
    return phi, (lam * m * m * s).sum(axis=1) - c_ref


def _wasserstein(G, nominal, rho, c_ref, lam, vecs) -> _Dual:
    """Gelbrich ball: every function of g is diagonal in the gradient eigenbasis
    (lam and vecs, from _clean_gradients)."""
    vecs_t = np.swapaxes(vecs, 1, 2)
    sig_t = vecs_t @ nominal @ vecs  # nominal in the gradient eigenbasis
    s = np.diagonal(sig_t, axis1=1, axis2=2).copy()
    lam1 = lam[:, -1]
    lo = lam1 * (1.0 + np.sqrt(np.maximum(s[:, -1], 0.0)) / rho)
    hi = lam1 * (1.0 + np.sqrt(np.trace(nominal, axis1=1, axis2=2)) / rho)

    def candidate(idx, g, aux):
        m = g[:, None] / aux[0]
        inner = sig_t[idx] * (m[:, :, None] * m[:, None, :])
        return symmetrize(vecs[idx] @ inner @ vecs_t[idx])

    scale = np.abs(c_ref) + (lam * s).sum(axis=1)
    return _Dual(lo, hi, scale, (lam, s, c_ref, rho), _w2_divergence, _w2_values, candidate, 1)


def _kl_divergence(g, lam, c_ref, rho):
    gap = np.maximum(g[:, None] - lam, 1e-300)
    logs = np.log1p(-lam / g[:, None])
    r = lam / gap
    return 0.5 * (logs + r).sum(axis=1), -0.5 * (r * r).sum(axis=1) / g, (gap, logs)


def _kl_values(g, gap, logs, lam, c_ref, rho):
    phi = 2.0 * g * rho - g * logs.sum(axis=1) - c_ref
    return phi, (lam * g[:, None] / gap).sum(axis=1) - c_ref


def _kl(G, nominal, rho, c_ref, hat_vals, root) -> _Dual:
    """KL ball: every function of g is diagonal after whitening with Shat^{1/2}.
    hat_vals and root are the nominal's eigenvalues and square root."""
    d = nominal.shape[1]
    if (hat_vals[:, 0] < -EIG_CLAMP).any():
        raise InvalidInputError(
            f"matrix is not psd: min eigenvalue {hat_vals[:, 0].min():.3e} < -{EIG_CLAMP:.0e}"
        )
    lam, U = np.linalg.eigh(symmetrize(root @ G @ root))
    lam = np.maximum(lam, 0.0)
    lam1 = lam[:, -1]
    RU = root @ U
    RU_t = np.swapaxes(RU, 1, 2)

    def candidate(idx, g, aux):
        m = g[:, None] / aux[0]
        return symmetrize((RU[idx] * m[:, None, :]) @ RU_t[idx])

    scale = np.abs(c_ref) + lam.sum(axis=1)
    return _Dual(lam1, lam1 * (1.0 + d / rho), scale, (lam, c_ref, rho), _kl_divergence,
                 _kl_values, candidate, 2)


def _pencil(g, inv2, G):
    """Sigma(g) = (Shat^{-2} - Gamma/g)^{-1/2}, the pencil's eigenvectors and
    its eigenvalues' roots, and whether the pencil is pd (elsewhere the roots
    are placeholders)."""
    vals, vecs = np.linalg.eigh(symmetrize(inv2 - G / g[:, None, None]))
    pd = vals[:, 0] > 0.0
    roots = np.sqrt(np.where(pd[:, None], vals, 1.0))
    return (vecs / roots[:, None, :]) @ np.swapaxes(vecs, 1, 2), vecs, roots, pd


def _fisher_divergence(g, inv2, G, tr_inv_hat, c_ref, rho):
    """The divergence and its slope. With M = Shat^{-2} - Gamma/g = V diag(v) V^T
    and Gt = V^T Gamma V, Daleckii-Krein differentiates M^{-1/2} with the
    divided differences of v^{-1/2}, -1 / (r_i r_j (r_i + r_j)) for r = v^{1/2};
    the diagonal terms cancel against the slope of Tr M^{1/2}, leaving
    div'(g) = -sum_ij Gt_ij^2 / (r_i r_j (r_i + r_j)) / g^3."""
    sigma, vecs, roots, pd = _pencil(g, inv2, G)
    div = (inv2 * sigma).sum(axis=(1, 2)) - 2.0 * tr_inv_hat + roots.sum(axis=1)
    div = np.where(pd, div, np.inf)
    Gt = np.swapaxes(vecs, 1, 2) @ G @ vecs
    dd = roots[:, :, None] * roots[:, None, :] * (roots[:, :, None] + roots[:, None, :])
    slope = -(Gt * Gt / dd).sum(axis=(1, 2)) / g**3
    return div, np.where(pd, slope, np.nan), (div, sigma)


def _fisher_values(g, div, sigma, inv2, G, tr_inv_hat, c_ref, rho):
    prim = (G * symmetrize(sigma)).sum(axis=(1, 2)) - c_ref
    return prim - g * (div - rho), prim


def _fisher(G, nominal, rho, c_ref, hat_vals, inv2, tr_inv_hat) -> _Dual:
    """Fisher ball: one pencil eigendecomposition per evaluation, none here.
    hat_vals, inv2 and tr_inv_hat are the nominal's eigenvalues, Shat^{-2}
    and t = Tr Shat^{-1}.

    The bracket is closed-form. Below lo = lam_max(Shat Gamma Shat) the
    pencil is indefinite. Above it, Gamma/g <= (lo/g) Shat^{-2}, so
    Shat^{-2} >= M = Shat^{-2} - Gamma/g >= (1 - lo/g) Shat^{-2}; the square
    root is operator monotone (Loewner-Heinz), so Tr Sigma^{-1} = Tr M^{1/2}
    <= t and Sigma <= (1 - lo/g)^{-1/2} Shat, which bound the divergence
    Tr Shat^{-2} Sigma - 2t + Tr Sigma^{-1} by ((1 - lo/g)^{-1/2} - 1) t.
    That bound equals rho at hi = lo / (1 - (1 + rho/t)^{-2}), so
    div(hi) <= rho.
    """
    if (hat_vals[:, 0] <= 0.0).any():
        raise InvalidInputError("Fisher oracle needs a positive definite nominal")
    lo = np.linalg.eigvalsh(symmetrize(nominal @ G @ nominal))[:, -1]
    hi = lo / -np.expm1(-2.0 * np.log1p(rho / tr_inv_hat))

    def candidate(idx, g, aux):
        return symmetrize(aux[1])

    scale = np.abs(c_ref) + (G * nominal).sum(axis=(1, 2))
    return _Dual(lo, hi, scale, (inv2, G, tr_inv_hat, c_ref, rho), _fisher_divergence,
                 _fisher_values, candidate, 2)


_SETUPS = {
    DivergenceKind.WASSERSTEIN2: _wasserstein,
    DivergenceKind.KULLBACK_LEIBLER: _kl,
    DivergenceKind.FISHER: _fisher,
}


def _newton(kind: str, dual: _Dual, blocks: np.ndarray, delta: float, d: int):
    """Lockstep safeguarded Newton on the blocks of a group; div(g) must decrease.

    Each block starts at its upper bracket end and steps on the reciprocal
    form rho^{-1/q} - div(g)^{-1/q}, q = dual.order, whose Newton step is
    g - q div (div^{1/q} - rho^{1/q}) / (rho^{1/q} div'(g)) (for q = 1 the
    secular-equation step of More & Sorensen, 1983). Every evaluation moves
    one end of the block's bracket [lo, hi] onto g, keeping the root inside;
    a step that would not land strictly inside the bracket (as with a
    non-finite, zero or wrong-signed slope) is replaced by the bracket's
    midpoint, so a block falls back to bisection where Newton fails. A block
    is accepted once its candidate is feasible to rho + 1e-8 (the bracket
    ends are tight for identity-like gradients, so the optimal gamma can sit
    exactly on one, and for d = 1 under Wasserstein lo = hi), active to
    1e-6, and meets the delta criterion, which is floored at
    1e-9 * max(1, scale) because it cannot certify improvements below
    rounding level (e.g. when the reference already sits at the optimum).
    Accepted blocks leave the arrays of the live ones, each with its
    candidate Sigma(gamma) from the accepting evaluation; a block that does
    not certify within _MAX_STEPS evaluations raises OracleError. Returns
    (gamma, delta_achieved, dual_bound, steps, Sigma(gamma)) aligned with
    blocks, the last a (len(blocks), d, d) stack; steps counts a block's
    evaluations.
    """
    lo, hi = dual.lo[blocks], dual.hi[blocks]
    floor = 1e-9 * np.maximum(1.0, dual.scale[blocks])
    q, p = dual.order, 1.0 / dual.order
    gamma, got, bound = np.empty(blocks.size), np.ones(blocks.size), np.empty(blocks.size)
    steps = np.zeros(blocks.size, dtype=int)
    sigma = np.empty((blocks.size, d, d))

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
        sigma[b] = dual.candidate(blocks[b], g[j], tuple(a[j] for a in aux))
        return j

    live = np.arange(blocks.size)
    g = hi.copy()
    tol = 1e-12 * np.maximum(1.0, hi)
    parts = tuple(a[blocks] for a in dual.data)
    for step in range(1, _MAX_STEPS + 1):
        if live.size == 0:
            return gamma, got, bound, steps, sigma
        rho = parts[-1]
        div, slope, aux = dual.divergence(g, *parts)
        up = div > rho
        np.copyto(lo, g, where=up)
        np.copyto(hi, g, where=~up)
        done = accept(live, g, div, aux, parts, step)
        narrow = hi - lo <= tol
        if np.count_nonzero(narrow):
            # feasible side of a collapsed bracket
            k = np.setdiff1d(narrow.nonzero()[0], done)
            sub = tuple(a[k] for a in parts)
            div_k, _, aux_k = dual.divergence(hi[k], *sub)
            done = np.concatenate((done, k[accept(live[k], hi[k], div_k, aux_k, sub, step)]))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = g - q * div * (div**p - rho**p) / (rho**p * slope)
        # g was a bracket end, so a wrong-signed slope steps outside the
        # bracket; a nan step fails both comparisons
        g = np.where((g > lo) & (g < hi), g, 0.5 * (lo + hi))
        if done.size:
            keep = np.ones(live.size, dtype=bool)
            keep[done] = False
            live, lo, hi, tol, g = live[keep], lo[keep], hi[keep], tol[keep], g[keep]
            parts = tuple(a[keep] for a in parts)
    if live.size:
        raise OracleError(f"{kind} oracle failed to certify in {_MAX_STEPS} steps")
    return gamma, got, bound, steps, sigma


def _nominal_factors(kind: DivergenceKind, nominal: np.ndarray) -> tuple:
    """The factors of a stack of symmetrized nominals that kind's setup reads,
    one per-block array each: for KL the eigenvalues and Shat^{1/2}, for
    Fisher the eigenvalues, Shat^{-2} and Tr Shat^{-1}, for Wasserstein none.
    They are formed for every block of a group, live or not, so a nominal
    the setup would reject gets its factors without a warning; the setup
    checks the eigenvalues of the blocks that go live."""
    if kind is DivergenceKind.WASSERSTEIN2:
        return ()
    hat_vals, hat_vecs = np.linalg.eigh(nominal)
    hat_vecs_t = np.swapaxes(hat_vecs, 1, 2)
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        root = (hat_vecs * np.sqrt(np.maximum(hat_vals, 0.0))[:, None, :]) @ hat_vecs_t
        return hat_vals, symmetrize(root)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv2 = (hat_vecs / hat_vals[:, None, :] ** 2) @ hat_vecs_t
        return hat_vals, inv2, (1.0 / hat_vals).sum(axis=1)


class _Group(NamedTuple):
    """Blocks of one built-in kind and size, with what stays fixed while their
    gradients and references change: the positions idx of the blocks in the
    pass; the stack rows they gather, as parts (stack, rows, count) with rows
    a slice over the whole stack or an index array; and stacked along axis 0
    the symmetrized nominals, the radii, the eigenvalue floors and the kind's
    nominal factors."""

    kind: DivergenceKind
    idx: np.ndarray
    parts: tuple
    nominal: np.ndarray
    rho: np.ndarray
    floors: np.ndarray
    factors: tuple


def _group(kind, idx, parts, nominal, rho, floors) -> _Group:
    nominal = symmetrize(nominal)
    return _Group(kind, idx, parts, nominal, rho, floors, _nominal_factors(kind, nominal))


class _Pass(NamedTuple):
    """What an oracle pass returns: the targets, stacked like its references,
    and per block, in block order, the fields of OracleResult other than
    sigma_star."""

    targets: list
    gamma: np.ndarray
    active: np.ndarray
    got: np.ndarray
    bound: np.ndarray
    steps: np.ndarray


def _solve_group(group: _Group, G, sigma_ref, delta) -> _Pass:
    """Oracles of the B blocks of a group, given their (B, d, d) gradients
    and references; the targets are one (B, d, d) stack.

    Blocks with a zero (clamped) gradient return the nominal, inactive;
    blocks with rho = 0 return the nominal, active. Wasserstein outputs
    must dominate their block's lam_floor * I, which g(gI - Gamma)^{-1}
    guarantees; the check raises OracleError if rounding breaks it.
    """
    kind, nominal, rho, floors = group.kind, group.nominal, group.rho, group.floors
    G, top, eig = _clean_gradients(kind, G)
    c_ref = (G * sigma_ref).sum(axis=(1, 2))
    sigma = nominal.copy()
    gamma = np.full(rho.size, np.nan)
    got = np.ones(rho.size)
    bound = (G * nominal).sum(axis=(1, 2)) - c_ref  # primal value of the nominal
    steps = np.zeros(rho.size, dtype=int)
    nonzero = top > 0.0
    active = nonzero & (rho <= 0.0)
    live = np.flatnonzero(nonzero & (rho > 0.0))
    if live.size:
        dual = _SETUPS[kind](G[live], nominal[live], rho[live], c_ref[live],
                             *(f[live] for f in eig + group.factors))
        # lo is a positive multiple of the top eigenvalue of a transformed
        # gradient; where that is zero (KL with a singular nominal) the
        # objective is flat over the ball and the nominal is optimal
        todo = np.flatnonzero(dual.lo > 0.0)
        blocks = live[todo]
        gamma[blocks], got[blocks], bound[blocks], steps[blocks], sigma[blocks] = _newton(
            kind.value, dual, todo, delta, nominal.shape[1]
        )
        active[blocks] = True
        if kind is DivergenceKind.WASSERSTEIN2:
            k = blocks[floors[blocks] > 0.0]
            if k.size and (np.linalg.eigvalsh(sigma[k])[:, 0] < floors[k] - 1e-10).any():
                raise OracleError("wasserstein oracle output violates its eigenvalue floor")
    return _Pass([sigma], gamma, active, got, bound, steps)


def _custom_oracle(ball: AmbiguityBall, Gamma, sigma_ref, delta: float) -> tuple[np.ndarray, bool]:
    """Oracle of a ball with no built-in one, by its registered linearization:
    the target and whether it lies in the ball (its activity)."""
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
    what = f"linearization output of '{ball.custom_name}'"
    sigma = symmetrize(_check_square(sigma, what))
    if sigma.shape != Gamma.shape:
        raise InvalidInputError(f"{what} must have shape {Gamma.shape}, got {sigma.shape}")
    return sigma, membership(ball, MomentPair.zero_mean(sigma), 1e-8)


class _Plan(NamedTuple):
    """The part of an oracle pass that stays fixed over a solve: the number
    of blocks, the built-in groups and the custom balls, as (ball, block,
    stack, row)."""

    size: int
    groups: list
    custom: list


def _plan(balls: Sequence[AmbiguityBall], floors: Sequence[float], lengths: Sequence[int]) -> _Plan:
    """Group the blocks by (kind, size) and stack each group's nominals,
    radii, floors and nominal factors once. The pass's blocks come in
    stacks of lengths[s] rows, block order running through the stacks in
    turn; floors[z] is the eigenvalue floor a Wasserstein output of block z
    must keep."""
    where = [(s, r) for s, k in enumerate(lengths) for r in range(k)]
    members: dict = {}
    custom = []
    for i, ball in enumerate(balls):
        if ball.kind in ORACLE_KINDS:
            members.setdefault((ball.kind, ball.nominal.dim), []).append(i)
        else:
            custom.append((ball, i, *where[i]))
    groups = []
    for (kind, _), idx in members.items():
        parts = []
        for s, run in itertools.groupby((where[i] for i in idx), key=lambda place: place[0]):
            rows = [r for _, r in run]
            whole = len(rows) == lengths[s]
            parts.append((s, slice(None) if whole else np.array(rows), len(rows)))
        groups.append(_group(
            kind, np.array(idx), tuple(parts),
            np.stack([balls[i].nominal.cov for i in idx]),
            np.array([balls[i].radius for i in idx], dtype=float),
            np.array([floors[i] for i in idx], dtype=float),
        ))
    return _Plan(len(balls), groups, custom)


def _gather(stacks, parts) -> np.ndarray:
    """A group's rows of stacks, in block order, with at most one concatenate."""
    rows = [stacks[s][r] for s, r, _ in parts]
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _run(plan: _Plan, grads: Sequence[np.ndarray], refs: Sequence[np.ndarray],
         delta: float) -> _Pass:
    """The oracle of every block of plan, given the gradients and references
    as stacks laid out as the plan's: each custom ball calls its registered
    linearization, then each group gathers its rows and is solved on stacked
    arrays. The stacks are taken as checked; nothing here re-checks them."""
    size = plan.size
    targets = [np.empty_like(R) for R in refs]
    gamma, active = np.full(size, np.nan), np.zeros(size, dtype=bool)
    got, bound, steps = np.full(size, delta), np.full(size, np.nan), np.zeros(size, dtype=int)
    for ball, i, s, r in plan.custom:
        targets[s][r], active[i] = _custom_oracle(ball, grads[s][r], refs[s][r], delta)
    for group in plan.groups:
        found = _solve_group(group, _gather(grads, group.parts), _gather(refs, group.parts), delta)
        i = group.idx
        gamma[i], active[i], got[i], bound[i], steps[i] = found[1:]
        start = 0
        for s, rows, count in group.parts:
            targets[s][rows] = found.targets[0][start:start + count]
            start += count
    return _Pass(targets, gamma, active, got, bound, steps)


def _results(found: _Pass) -> list[OracleResult]:
    """One OracleResult per block of a pass, in block order."""
    sigma = [S for stack in found.targets for S in stack]
    return [
        OracleResult(S, float(g), bool(a), float(f), float(b), int(k))
        for S, g, a, f, b, k in zip(sigma, *found[1:])
    ]


def oracle_pass(
    balls: Sequence[AmbiguityBall],
    grads: Sequence[np.ndarray],
    refs: Sequence[np.ndarray],
    floors: Sequence[float],
    delta: float = 0.95,
) -> list[OracleResult]:
    """Linearization oracle of every block, in block order.

    Block z maximizes <grads[z], Sigma - refs[z]> over balls[z]; floors[z]
    is the eigenvalue floor a Wasserstein output must keep. Every gradient
    and reference is checked here (shape, finiteness). Built-in kinds are
    solved group by group on stacked arrays; a custom ball calls its
    registered linearization. A solve plans the pass once (_plan) and runs
    the plan (_run) at every iteration on its own stacks; this plans and
    runs it once, each block a stack of one.
    """
    if not len(grads) == len(refs) == len(floors) == len(balls):
        raise InvalidInputError("oracle_pass needs one gradient, reference and floor per ball")
    dims = [ball.nominal.dim for ball in balls]
    G = [_stack([M], d, "gradient") for M, d in zip(grads, dims)]
    ref = [_stack([M], d, "reference") for M, d in zip(refs, dims)]
    return _results(_run(_plan(balls, floors, [1] * len(balls)), G, ref, delta))


def _solve_one(kind, Gamma, nominal_cov, rho, sigma_ref, lam_floor, delta) -> OracleResult:
    """The oracle of one block with a bare nominal: a pass of one group of one."""
    nominal = _check_square(nominal_cov, "nominal")
    d = nominal.shape[0]
    G, ref = _stack([Gamma], d, "gradient"), _stack([sigma_ref], d, "reference")
    group = _group(kind, np.zeros(1, dtype=int), ((0, slice(None), 1),), nominal[None],
                   np.array([float(rho)]), np.array([float(lam_floor)]))
    return _results(_run(_Plan(1, [group], []), [G], [ref], delta))[0]


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
    found by safeguarded Newton from the upper of the closed-form bounds
    lam1 (1 + sqrt(p1' Shat p1)/rho) and lam1 (1 + sqrt(Tr Shat)/rho), with
    bisection between them as the fallback.
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
    Shat^{1/2} Gamma Shat^{1/2}, by safeguarded Newton from the upper end
    with bisection as the fallback.
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
    Shat^{-2} - Sigma^{-2} to Sigma(g) = (Shat^{-2} - Gamma/g)^{-1/2}; g solves
    the constraint by safeguarded Newton from the upper end, with bisection
    as the fallback, inside the closed-form bracket
    [lo, lo / (1 - (1 + rho/t)^{-2})], lo = lam_max(Shat Gamma Shat) (where
    the pencil loses definiteness) and t = Tr Shat^{-1}.
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
