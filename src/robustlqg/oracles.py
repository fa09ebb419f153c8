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
Fisher), so the form is close to linear in g. Wasserstein starts at the
upper bracket end; KL starts at the root sqrt(c / rho) of its tail
asymptote div(g) ~ c g^{-2}, where that lies inside the bracket (the start
secular-equation solvers take from the far asymptote; R.-C. Li, LAPACK
Working Note 89). Fisher, whose pencil does not commute, steps from a
model of its divergence, as secular-equation solvers do: the commuting
model m(g) = w sum_k phi(h_k / g), phi(x) = (1-x)^{-1/2} + (1-x)^{1/2} - 2,
over the eigenvalues h of Shat Gamma Shat: where Shat = diag(s) and Gamma
commute, the divergence is sum_k phi(h_k / g) / s_k, and the model puts
one weight w, fitted to the exact tail, in place of the 1 / s_k. It starts
one Newton step on the model past the tail root (or the upper end), and
takes every step on the reciprocal form of the model's order
q = 1 / (m m'' / m'^2 - 1) at the current g (2 in the tail, 1/2 at the
pole), or of q = 2 after a step that did not shrink |div - rho|. A
bisection step replaces Newton whenever it would leave the bracket. The
search stops once the
candidate is feasible, the constraint is active to 1e-6, and the
delta-criterion <Sigma(g) - Sigma_ref, Gamma> >= delta * phi(g) holds for
the fixed delta = _DELTA; a block that does not certify raises OracleError,
so every returned result is certified.

A pass solves the oracles of many blocks at once. Its blocks come as
stacks of (k, d, d) arrays; it groups them by (divergence kind, block
size), gathers each group's rows with at most one concatenate, and runs
each group on stacked (B, d, d) arrays. The gradients' psd check reads no
kind: it is one batched Cholesky, with eigenvalues computed only where it
fails (matops._cholesky_certifies), and they alone decide it. Every setup takes
(G, nominal, rho, c_ref, *nominal factors) for the blocks with rho > 0 and
decomposes their gradients itself: one batched eigendecomposition per
group (of Gamma for Wasserstein, of the gradient whitened by the nominal's
Cholesky factor for KL)
diagonalizes every block's dual equation, so a divergence and its slope
cost O(d) per block and a few numpy calls per group. The Fisher pencil
does not commute, so each Fisher evaluation takes one batched
eigendecomposition of the pencil in the nominal's eigenbasis, where it is
graded and eigh keeps its small eigenvalues accurate. It is shared by the
divergence (a sum of squares, free of cancellation), its slope
(Daleckii-Krein, in the pencil eigenbasis) and the dual and primal values;
Sigma(g) is formed only for the blocks it accepts. The model reads only
the bracket's eigenvalues, so it costs no evaluation.
The search runs in lockstep: every unfinished block takes its own step at
each iteration and leaves the group once it certifies, so a block's result
does not depend on the rest of its group. Each step evaluates the
divergence once for each unfinished block, in one call over them, and a
block's steps count exactly its evaluations.

Every oracle is a pass over AmbiguityBall objects, so no pass checks a
nominal: it was checked when its ball was built, one at a time or a stack
at once (NominalModel.ball_profile), as a psd Wasserstein nominal or a pd KL
or Fisher one, finite and square. What depends only on the balls is planned
once (_plan): the nominals laid out as the pass's stacks, where every
Frank-Wolfe solve starts (_Plan.start), the groups and the stack rows they
gather, their nominals (gathered from those stacks) and radii, and the
nominal factors the setups read (KL: the
Cholesky factor L, Shat = L L^T; Fisher: the eigenpairs of Shat and
Shat^{-2} in its eigenbasis). Planning rejects a
nonzero nominal mean and a ball with no oracle. _run runs a plan and
returns the targets stacked like the references, with per-block arrays of
the other results and of the blocks' upper bounds, the dual bounds grown
by the search's feasibility slack (_Pass.upper), which Frank-Wolfe sums
into its dual gap; it takes its stacks as checked. A Frank-Wolfe solve
plans before it evaluates anything and runs the plan at every iteration on
its own arrays. The public entry points check the gradients and references (shape,
finiteness), run the same _run and build the OracleResult objects:
oracle_pass plans and runs once, solve_oracle is a pass of one block, and
wasserstein_oracle, kl_oracle and fisher_oracle build the ball of a bare
nominal covariance and call solve_oracle. A Wasserstein output K Shat K,
K = g (gI - Gamma)^{-1} >= I, dominates lam_min(Shat) I by construction, so
no pass checks an eigenvalue floor; only solve_oracle takes one to check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .divergences import AmbiguityBall, DivergenceKind, MomentPair, membership
from .errors import ConditioningError, InvalidInputError, OracleError, UnsupportedDivergenceError
from .matops import (
    _check_finite, _check_square, _cholesky, _cholesky_certifies, _eigh, _eigvalsh, _is_number,
    symmetrize,
)

_GRAD_CLAMP = 1e-8
_MAX_STEPS = 200
_ACTIVITY_TOL = 1e-6
# the feasibility slack of the root search: it accepts div <= rho + _FEAS_TOL
_FEAS_TOL = 1e-8
# the certified fraction of the dual bound every built-in oracle meets, and
# the one a custom linearization, which has no dual, reports
_DELTA = 0.95


@dataclass(frozen=True)
class OracleResult:
    """Output of a linearization oracle.

    sigma_star is feasible in the ball; active marks a tight constraint;
    subopt_delta_achieved is the certified fraction of the dual bound, at
    least _DELTA up to a rounding floor (a custom linearization reports
    _DELTA itself).
    dual_bound is phi(dual_gamma) relative to sigma_ref, an upper bound on
    max <Gamma, Sigma - sigma_ref> over the ball; a block that needs no
    root search (zero gradient, rho = 0) reports its own primal value, and a
    custom linearization, which has no dual, reports nan. steps counts the
    divergence evaluations of the root search, one per Newton or bisection
    step, and the search evaluates nothing else.
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


def _check_gradients(G: np.ndarray) -> np.ndarray:
    """Symmetrize a (B, d, d) gradient stack and check it psd: every block
    needs lam_min >= -1e-8 (1 + max |eig|). Returns the symmetrized stack.

    One batched Cholesky of G + 1e-8 (1 + max |diag|) I certifies the check
    (the diagonal lies within the spectrum, so the shift is at most the
    rule's); where it fails, the eigenvalues decide. The check reads no kind:
    each kind's setup decomposes the gradient as far as it needs.
    """
    G = symmetrize(G)
    diag = np.diagonal(G, axis1=1, axis2=2)
    if _cholesky_certifies(G, _GRAD_CLAMP * (1.0 + np.abs(diag).max(axis=1))):
        return G
    vals = _eigvalsh(G)
    bad = vals[:, 0] < -_GRAD_CLAMP * (1.0 + np.abs(vals).max(axis=1))
    if bad.any():
        raise InvalidInputError(
            f"gradient block is not psd: min eigenvalue {vals[bad, 0].min():.3e}"
        )
    return G


class _Dual(NamedTuple):
    """The dual equations of a group of blocks, from their setup's own
    decomposition of the gradients. lo and hi bracket each block's gamma in
    closed form. lo is the top eigenvalue of a transformed gradient (for
    Wasserstein Gamma clamped, times a factor >= 1; for KL L^T Gamma L
    clamped, Shat = L L^T; for Fisher Shat Gamma Shat), and
    size the largest eigenvalue magnitude of that transformed gradient
    before clamping; a block with lo <= 1e-12 size (an exact zero has
    lo = size = 0) has a gradient that is zero to rounding. scale is the
    magnitude of the trace inner products, which sets the delta criterion's floor.
    data holds per-block arrays (block on axis 0), the last of them rho.
    divergence(g, *data) returns the divergence of Sigma(g), its derivative
    in g and a tuple aux of per-block arrays that values(g, *aux, *data)
    reuses to return (phi(g), primal value), both relative to sigma_ref.
    candidate(idx, g, aux) returns Sigma(g) for the blocks idx, stacked,
    given the aux of their evaluation at g. order is the kind's constant q:
    div(Sigma(g)) decays like g^{-q} for large g (1 for Wasserstein, whose
    divergence is a distance, 2 for KL and Fisher, which are quadratic in
    Sigma - Shat), so div^{-1/q} is close to linear in g. slack is the
    per-block growth of phi(g) / g when the radius grows by the search's
    feasibility slack _FEAS_TOL, the change in the kind's dual radius term:
    (rho + _FEAS_TOL)^2 - rho^2 for Wasserstein (g rho^2), 2 _FEAS_TOL for
    KL (2 g rho) and _FEAS_TOL for Fisher (g rho). start is the per-block
    point of the first evaluation, strictly inside (lo, hi) or hi itself:
    hi for Wasserstein, whose hi lies close to the root, and the root
    sqrt(c / rho) of the tail asymptote div(g) ~ c g^{-2} for KL (_tail_start),
    from which Fisher takes one Newton step on a model of its divergence
    (_model_start). order_at is None, or order_at(idx, g, miss), which
    returns the order q of the next step of the blocks idx at g, given
    their |div(g) - rho| (Fisher: the model's order, _fisher_model, or 2
    where the miss did not shrink since the block's previous call).
    """

    lo: np.ndarray
    hi: np.ndarray
    size: np.ndarray
    scale: np.ndarray
    data: tuple
    divergence: Callable
    values: Callable
    candidate: Callable
    order: int
    slack: np.ndarray
    start: np.ndarray
    order_at: Callable | None = None


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


def _wasserstein(G, nominal, rho, c_ref) -> _Dual:
    """Gelbrich ball: every function of g is diagonal in the gradient eigenbasis."""
    lam, vecs = _eigh(G)
    size = np.maximum(-lam[:, 0], lam[:, -1])
    lam = np.maximum(lam, 0.0)
    vecs_t = np.swapaxes(vecs, 1, 2)
    sig_t = vecs_t @ nominal @ vecs  # nominal in the gradient eigenbasis
    s = np.diagonal(sig_t, axis1=1, axis2=2).copy()
    lam1 = lam[:, -1]
    factor = 1.0 + np.sqrt(np.maximum(s[:, -1], 0.0)) / rho
    hi = lam1 * (1.0 + np.sqrt(np.trace(nominal, axis1=1, axis2=2)) / rho)

    def candidate(idx, g, aux):
        m = g[:, None] / aux[0]
        inner = sig_t[idx] * (m[:, :, None] * m[:, None, :])
        return symmetrize(vecs[idx] @ inner @ vecs_t[idx])

    scale = np.abs(c_ref) + (lam * s).sum(axis=1)
    return _Dual(lam1 * factor, hi, size * factor, scale, (lam, s, c_ref, rho), _w2_divergence,
                 _w2_values, candidate, 1, _FEAS_TOL * (2.0 * rho + _FEAS_TOL), hi)


def _kl_divergence(g, lam, c_ref, rho):
    gap = np.maximum(g[:, None] - lam, 1e-300)
    logs = np.log1p(-lam / g[:, None])
    r = lam / gap
    return 0.5 * (logs + r).sum(axis=1), -0.5 * (r * r).sum(axis=1) / g, (gap, logs)


def _kl_values(g, gap, logs, lam, c_ref, rho):
    phi = 2.0 * g * rho - g * logs.sum(axis=1) - c_ref
    return phi, (lam * g[:, None] / gap).sum(axis=1) - c_ref


def _kl(G, nominal, rho, c_ref, chol) -> _Dual:
    """KL ball: every function of g is diagonal after whitening with the
    nominal's Cholesky factor L (chol, a nominal factor), Shat = L L^T.
    L^T Gamma L = U diag(lam) U^T has the eigenvalues of
    Shat^{1/2} Gamma Shat^{1/2}, and Sigma(g) = (L U) diag(g / (g - lam)) (L U)^T.
    For large g, div(g) = sum_i lam_i^2 / (4 g^2) + O(g^{-3})."""
    d = nominal.shape[1]
    lam, U = _eigh(symmetrize(np.swapaxes(chol, 1, 2) @ G @ chol))
    size = np.maximum(-lam[:, 0], lam[:, -1])
    lam = np.maximum(lam, 0.0)
    lam1 = lam[:, -1]
    RU = chol @ U
    RU_t = np.swapaxes(RU, 1, 2)

    def candidate(idx, g, aux):
        m = g[:, None] / aux[0]
        return symmetrize((RU[idx] * m[:, None, :]) @ RU_t[idx])

    scale = np.abs(c_ref) + lam.sum(axis=1)
    hi, tail = lam1 * (1.0 + d / rho), 0.25 * (lam * lam).sum(axis=1)
    return _Dual(lam1, hi, size, scale, (lam, c_ref, rho), _kl_divergence, _kl_values,
                 candidate, 2, np.full(rho.size, 2.0 * _FEAS_TOL),
                 _tail_start(lam1, hi, tail, rho))


def _tail_start(lo, hi, tail, rho):
    """The root sqrt(c / rho) of the tail asymptote div(g) ~ c g^{-2} (the
    start secular-equation solvers take from the far asymptote), where it
    lies strictly inside (lo, hi), and hi elsewhere."""
    root = np.sqrt(tail / rho)
    return np.where((root > lo) & (root < hi), root, hi)


def _pencil(g, inv2, G):
    """The eigenvectors V of the pencil M = Shat^{-2} - Gamma/g in Shat's
    eigenbasis, the roots r of its eigenvalues, so Sigma(g) = M^{-1/2} is
    V diag(1/r) V^T there, and whether the pencil is pd (elsewhere the roots
    are placeholders). Both inputs are exactly symmetric."""
    vals, vecs = _eigh(inv2 - G / g[:, None, None])
    pd = vals[:, 0] > 0.0
    return vecs, np.sqrt(np.where(pd[:, None], vals, 1.0)), pd


def _fisher_divergence(g, inv2, inv_s, G, c_ref, rho):
    """The divergence and its slope, in Shat = U diag(s) U^T's eigenbasis: from
    inv2 = diag(s^{-2}), inv_s = 1/s and G = U^T Gamma U, the pencil is
    M = diag(s^{-2}) - G/g = V diag(r^2) V^T. M is graded like Shat^{-2}, and
    there eigh keeps its small eigenvalues, which set the divergence near
    the pole, to a far smaller error than in the original basis. With
    Sigma^{-1} = M^{1/2} = V diag(r) V^T, the divergence
    Tr Shat^{-2} Sigma - 2 Tr Shat^{-1} + Tr Sigma^{-1} is the sum of squares
    Tr((Shat^{-1} - Sigma^{-1})^2 Sigma) = sum_ij D_ij^2 / r_j with
    D = V^T diag(1/s) V - diag(r), free of the cancellation between its
    O(Tr Shat^{-1}) terms that the trace form suffers once the nominal is
    ill-conditioned. Sigma itself is formed only for accepted blocks
    (_fisher's candidate). With Gt = V^T G V, Daleckii-Krein differentiates
    M^{-1/2} with the divided differences of v^{-1/2} over its eigenvalues
    v = r^2, -1 / (r_i r_j (r_i + r_j)); the diagonal terms cancel against
    the slope of Tr M^{1/2}, leaving
    div'(g) = -sum_ij Gt_ij^2 / (r_i r_j (r_i + r_j)) / g^3."""
    vecs, roots, pd = _pencil(g, inv2, G)
    vecs_t = np.swapaxes(vecs, 1, 2)
    Gt = vecs_t @ G @ vecs
    D = (vecs_t * inv_s[:, None, :]) @ vecs
    k = np.arange(D.shape[1])
    D[:, k, k] -= roots
    div = np.where(pd, (D * D / roots[:, None, :]).sum(axis=(1, 2)), np.inf)
    dd = roots[:, :, None] * roots[:, None, :] * (roots[:, :, None] + roots[:, None, :])
    slope = -(Gt * Gt / dd).sum(axis=(1, 2)) / g**3
    return div, np.where(pd, slope, np.nan), (div, vecs, roots, Gt)


def _fisher_values(g, div, vecs, roots, Gt, inv2, inv_s, G, c_ref, rho):
    # <Gamma, Sigma> = sum_i Gt_ii / r_i
    prim = (np.diagonal(Gt, axis1=1, axis2=2) / roots).sum(axis=1) - c_ref
    return prim - g * (div - rho), prim


def _fisher_model(g, h):
    """The commuting model of the Fisher divergence, m(g) = w sum_k phi(h_k / g)
    with phi(x) = (1-x)^{-1/2} + (1-x)^{1/2} - 2, up to its weight w: where
    Shat = diag(s) and Gamma commute, the divergence is the same sum with
    weights 1 / s_k in place of w. Returns
    sum_k phi, the slope's g sum_k x phi'(x) (m' = -w sum / g) and the
    model's order 1 / (m m'' / m'^2 - 1), the q of m ~ g^{-q}: 2 in the tail,
    1/2 at the pole g = max h. Sums of terms can fall below 1/2, so it is
    clamped to [1/2, 2], and it is 2 where not finite (every x rounds to 0).
    With u = (1-x)^{1/2} and a = x^2 / u, phi = a / (1+u)^2, x phi' = a / (2u^2)
    and g^2 m'' / w = sum 2x phi' + x^2 phi'' = sum a (4u^2 + 2 + x) / (4u^4),
    free of cancellation at small x."""
    x = h / g[:, None]
    u2 = 1.0 - x
    u = np.sqrt(u2)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = x * x / u
        s0 = (a / (1.0 + u) ** 2).sum(axis=1)
        s1 = (a / (2.0 * u2)).sum(axis=1)
        s2 = (a * (4.0 * u2 + 2.0 + x) / (4.0 * u2 * u2)).sum(axis=1)
        q = 1.0 / (s0 * s2 / (s1 * s1) - 1.0)
    return s0, s1, np.where(np.isfinite(q), np.clip(q, 0.5, 2.0), 2.0)


def _model_start(g, lo, hi, h, tail, rho):
    """One Newton step on the commuting model m(g) = w sum_k phi(h_k / g)
    (_fisher_model), w = 4 tail / sum_k h_k^2 fitted to the exact tail
    c g^{-2}, from the start g, on the reciprocal form of the model's own
    order there. A step that does not land strictly inside [lo, hi] keeps g."""
    # a gradient zero to rounding (never searched) gives 0 / 0 here
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s0, s1, q = _fisher_model(g, h)
        w = 4.0 * tail / (h * h).sum(axis=1)
        m, p = w * s0, 1.0 / q
        step = g + q * m * (m**p - rho**p) * g / (rho**p * w * s1)
    return np.where((step > lo) & (step < hi), step, g)


def _fisher(G, nominal, rho, c_ref, inv2, hat_vals, hat_vecs) -> _Dual:
    """Fisher ball: one pencil eigendecomposition per evaluation, none here.
    inv2, hat_vals and hat_vecs are the nominal factors diag(s^{-2}) and the
    eigenpairs (s, U) of Shat; the search works in U's basis
    (_fisher_divergence).

    The bracket is closed-form. Below lo = lam_max(Shat Gamma Shat) the
    pencil is indefinite. Above it, Gamma/g <= (lo/g) Shat^{-2}, so
    Shat^{-2} >= M = Shat^{-2} - Gamma/g >= (1 - lo/g) Shat^{-2}; the square
    root is operator monotone (Loewner-Heinz), so Tr Sigma^{-1} = Tr M^{1/2}
    <= t = Tr Shat^{-1} and Sigma <= (1 - lo/g)^{-1/2} Shat, which bound the
    divergence Tr Shat^{-2} Sigma - 2t + Tr Sigma^{-1} by
    ((1 - lo/g)^{-1/2} - 1) t. That bound equals rho at
    hi = lo / (1 - (1 + rho/t)^{-2}), so div(hi) <= rho.

    For large g, div(g) = c g^{-2} + O(g^{-3}) with
    c = sum_ij s_i^2 s_j^2 Gt_ij^2 / (2 (s_i + s_j)) and Gt = U^T Gamma U.
    The search's model (_fisher_model) reads the eigenvalues h of
    Shat Gamma Shat, clamped at 0, which set lo and share its pole; it sets
    the start (_model_start) and the order of every step, where it keeps
    each block's last |div - rho| to fall back to q = 2 after a step that
    did not shrink it.
    """
    s_i, s_j = hat_vals[:, :, None], hat_vals[:, None, :]
    hat_t = np.swapaxes(hat_vecs, 1, 2)
    Gt = symmetrize(hat_t @ G @ hat_vecs)
    H = s_i * Gt * s_j
    tail = (H * H / (2.0 * (s_i + s_j))).sum(axis=(1, 2))
    vals = _eigvalsh(H)  # H = U^T (Shat Gamma Shat) U, the same spectrum
    lo, size = vals[:, -1], np.maximum(-vals[:, 0], vals[:, -1])
    hi = lo / -np.expm1(-2.0 * np.log1p(rho / (1.0 / hat_vals).sum(axis=1)))
    # <Gamma, Shat> = sum_i s_i Gt_ii = sum_i H_ii / s_i, read off H
    value = (np.diagonal(H, axis1=1, axis2=2) / hat_vals).sum(axis=1)
    h = np.maximum(vals, 0.0)
    last = np.full(rho.size, np.inf)

    def order_at(idx, g, miss):  # keeps each block's last miss in last
        q = np.where(miss < last[idx], _fisher_model(g, h[idx])[2], 2.0)
        last[idx] = miss
        return q

    def candidate(idx, g, aux):
        W = hat_vecs[idx] @ aux[1]  # the pencil's eigenvectors in the original basis
        return symmetrize((W / aux[2][:, None, :]) @ np.swapaxes(W, 1, 2))

    start = _model_start(_tail_start(lo, hi, tail, rho), lo, hi, h, tail, rho)
    return _Dual(lo, hi, size, np.abs(c_ref) + value, (inv2, 1.0 / hat_vals, Gt, c_ref, rho),
                 _fisher_divergence, _fisher_values, candidate, 2,
                 np.full(rho.size, _FEAS_TOL), start, order_at)


_SETUPS = {
    DivergenceKind.WASSERSTEIN2: _wasserstein,
    DivergenceKind.KULLBACK_LEIBLER: _kl,
    DivergenceKind.FISHER: _fisher,
}
# kinds with a built-in oracle; a custom ball needs its handle's linearization
ORACLE_KINDS = frozenset(_SETUPS)


def _newton(kind: str, dual: _Dual, blocks: np.ndarray, d: int):
    """Lockstep safeguarded Newton on the blocks of a group; div(g) must decrease.

    Each block starts at dual.start: hi for Wasserstein, the tail root
    sqrt(c / rho) for KL, one Newton step on a model past it for Fisher,
    each where it lies strictly inside the bracket. It steps on the
    reciprocal form rho^{-1/q} - div(g)^{-1/q}, whose Newton step is
    g - q div (div^{1/q} - rho^{1/q}) / (rho^{1/q} div'(g)) (for q = 1 the
    secular-equation step of More & Sorensen, 1983), with q = dual.order,
    or per block dual.order_at at g where the kind has one (Fisher: the
    model's order, or 2 after an evaluation whose |div - rho| did not
    shrink; the model makes no evaluation). Every evaluation moves
    one end of the block's bracket [lo, hi] onto g, keeping the root inside;
    a step that would not land strictly inside the bracket (as with a
    non-finite, zero or wrong-signed slope) is replaced by the bracket's
    midpoint, so a block falls back to bisection where Newton fails. A block
    is accepted once its candidate is feasible to rho + _FEAS_TOL (the bracket
    ends are tight for identity-like gradients, so the optimal gamma can sit
    exactly on one, and for d = 1 under Wasserstein lo = hi), active to
    1e-6, and meets the delta criterion for delta = _DELTA, floored at
    1e-9 * max(1, scale) because it cannot certify improvements below
    rounding level (e.g. when the reference already sits at the optimum).
    Each step makes one divergence call over the live blocks; only those
    active and feasible there get their dual and primal values.
    Accepted blocks leave the arrays of the live ones, each with its
    candidate Sigma(gamma) from the accepting evaluation. A block that does
    not certify within _MAX_STEPS evaluations raises OracleError, and so
    does one whose bracket holds no double strictly inside and whose next
    point is an end it has evaluated: it would evaluate that point again,
    with the same result, at every later step. Returns
    (gamma, delta_achieved, dual_bound, steps, Sigma(gamma)) aligned with
    blocks, the last a (len(blocks), d, d) stack; steps is the step that
    accepted a block, so it counts the block's evaluations.
    """
    lo, hi = dual.lo[blocks], dual.hi[blocks]
    # whether each end is a point the block evaluated, not a closed-form bound
    lo_seen, hi_seen = np.zeros(blocks.size, dtype=bool), np.zeros(blocks.size, dtype=bool)
    floor = 1e-9 * np.maximum(1.0, dual.scale[blocks])
    q, p = dual.order, 1.0 / dual.order
    gamma, got, bound = np.empty(blocks.size), np.ones(blocks.size), np.empty(blocks.size)
    steps = np.zeros(blocks.size, dtype=int)
    sigma = np.empty((blocks.size, d, d))
    live = np.arange(blocks.size)
    parts = tuple(a[blocks] for a in dual.data)
    g = dual.start[blocks]
    for step in range(1, _MAX_STEPS + 1):
        if live.size == 0:
            return gamma, got, bound, steps, sigma
        rho = parts[-1]
        div, slope, aux = dual.divergence(g, *parts)
        up = div > rho
        np.copyto(lo, g, where=up)
        np.copyto(hi, g, where=~up)
        lo_seen |= up
        hi_seen |= ~up
        j = np.flatnonzero((np.abs(div - rho) <= _ACTIVITY_TOL) & (div <= rho + _FEAS_TOL))
        if j.size:
            phi, prim = dual.values(g[j], *(a[j] for a in aux + parts))
            passed = prim + floor[live[j]] >= _DELTA * phi
            j, phi, prim = j[passed], phi[passed], prim[passed]
            b = live[j]
            certified = phi > floor[b]
            got[b] = np.where(certified, np.minimum(1.0, prim / np.where(certified, phi, 1.0)), 1.0)
            gamma[b], bound[b], steps[b] = g[j], phi, step
            sigma[b] = dual.candidate(blocks[b], g[j], tuple(a[j] for a in aux))
        if dual.order_at is not None:
            q = dual.order_at(blocks[live], g, np.abs(div - rho))
            p = 1.0 / q
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = g - q * div * (div**p - rho**p) / (rho**p * slope)
        # g was a bracket end, so a wrong-signed slope steps outside the
        # bracket; a nan step fails both comparisons
        inside = (g > lo) & (g < hi)
        g = np.where(inside, g, 0.5 * (lo + hi))
        if not inside.all():
            # a midpoint is an end only where no double lies strictly inside
            closed = (g == lo) & lo_seen | (g == hi) & hi_seen
            closed[j] = False
            if closed.any():
                raise OracleError(f"{kind} oracle failed to certify: its bracket closed on "
                                  f"g = {float(g[closed.argmax()])!r} at step {step}")
        if j.size:
            keep = np.ones(live.size, dtype=bool)
            keep[j] = False
            live, lo, hi, g = live[keep], lo[keep], hi[keep], g[keep]
            lo_seen, hi_seen = lo_seen[keep], hi_seen[keep]
            parts = tuple(a[keep] for a in parts)
    if live.size:
        raise OracleError(f"{kind} oracle failed to certify in {_MAX_STEPS} steps")
    return gamma, got, bound, steps, sigma


def _nominal_factors(kind: DivergenceKind, nominal: np.ndarray) -> tuple:
    """The factors of a stack of symmetrized nominals that kind's setup reads,
    one per-block array each: for KL the Cholesky factor L, Shat = L L^T;
    for Fisher diag(s^{-2}), which is Shat^{-2} in Shat's eigenbasis, and
    the eigenpairs (s, U) of Shat (one batched eigh); for Wasserstein none.
    KL and Fisher nominals are pd, as their AmbiguityBall checks; a KL
    factor that is not finite all the same raises ConditioningError."""
    if kind is DivergenceKind.WASSERSTEIN2:
        return ()
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        if not np.isfinite(factor := _cholesky(nominal)).all():
            raise ConditioningError("KL nominal covariance has no finite Cholesky factor")
        return (factor,)
    hat_vals, hat_vecs = _eigh(nominal)
    inv2 = np.zeros_like(nominal)
    k = np.arange(nominal.shape[1])
    inv2[:, k, k] = hat_vals ** -2.0
    return inv2, hat_vals, hat_vecs


class _Group(NamedTuple):
    """Blocks of one built-in kind and size, with what stays fixed while their
    gradients and references change: the positions idx of the blocks in the
    pass; the stack rows they gather, as parts (stack, rows, count) with rows
    a slice over the whole stack or an index array; and stacked along axis 0
    the symmetrized nominals, the radii and the kind's nominal factors."""

    kind: DivergenceKind
    idx: np.ndarray
    parts: tuple
    nominal: np.ndarray
    rho: np.ndarray
    factors: tuple


class _Pass(NamedTuple):
    """What an oracle pass returns: the targets, stacked like its references,
    and per block, in block order, the fields of OracleResult other than
    sigma_star, then upper. upper bounds max <Gamma, Sigma - sigma_ref> over
    the ball of radius rho + _FEAS_TOL, which holds every accepted target:
    a searched block's phi(gamma) + gamma * slack (_Dual.slack), and the
    primal value of its target for any other block. A custom linearization
    has no dual, so its primal value counts as exact."""

    targets: list
    gamma: np.ndarray
    active: np.ndarray
    got: np.ndarray
    bound: np.ndarray
    steps: np.ndarray
    upper: np.ndarray


def _solve_group(group: _Group, G, sigma_ref) -> tuple:
    """Oracles of the B blocks of a group, given their (B, d, d) gradients
    and references: the targets, one (B, d, d) stack, then per block the
    fields of OracleResult other than sigma_star, and last _Pass.upper. A
    block with rho = 0 returns its nominal, active (div = 0 = rho is tight),
    whatever its gradient; one with a gradient zero to rounding (see _Dual)
    returns it inactive. Neither is searched, so its upper bound is its
    primal value.
    """
    kind, nominal, rho = group.kind, group.nominal, group.rho
    G = _check_gradients(G)
    c_ref = (G * sigma_ref).sum(axis=(1, 2))
    sigma = nominal.copy()
    gamma = np.full(rho.size, np.nan)
    got = np.ones(rho.size)
    bound = (G * nominal).sum(axis=(1, 2)) - c_ref  # primal value of the nominal
    steps = np.zeros(rho.size, dtype=int)
    slack = np.zeros(rho.size)
    active = rho <= 0.0
    live = np.flatnonzero(~active)
    if live.size:
        dual = _SETUPS[kind](G[live], nominal[live], rho[live], c_ref[live],
                             *(f[live] for f in group.factors))
        # the Wasserstein factor scales lo and size alike, so this tests
        # Gamma's top eigenvalue against its unclamped magnitude
        todo = np.flatnonzero(dual.lo > 1e-12 * dual.size)
        blocks = live[todo]
        gamma[blocks], got[blocks], bound[blocks], steps[blocks], sigma[blocks] = _newton(
            kind.value, dual, todo, nominal.shape[1]
        )
        active[blocks] = True
        slack[blocks] = gamma[blocks] * dual.slack[todo]
    return sigma, gamma, active, got, bound, steps, bound + slack


def _custom_oracle(ball: AmbiguityBall, Gamma, sigma_ref) -> tuple[np.ndarray, bool]:
    """Oracle of a custom ball by its handle's linearization, which _plan
    checked it has: the target and whether it lies in the ball (its
    activity)."""
    handle = ball.custom
    sigma = handle.linearization(Gamma, ball.nominal, ball.radius, sigma_ref)
    what = f"linearization output of '{handle.name}'"
    sigma = symmetrize(_check_square(sigma, what))
    if sigma.shape != Gamma.shape:
        raise InvalidInputError(f"{what} must have shape {Gamma.shape}, got {sigma.shape}")
    return sigma, membership(ball, MomentPair.zero_mean(sigma), 1e-8)


class _Plan(NamedTuple):
    """The part of an oracle pass that stays fixed over a solve: the number
    of blocks, the built-in groups, the custom balls, as (ball, block,
    stack, row), and the balls' symmetrized nominals laid out as the pass's
    stacks (start), where every Frank-Wolfe solve starts."""

    size: int
    groups: list
    custom: list
    start: list


def _plan(balls: Sequence[AmbiguityBall], lengths: Sequence[int]) -> _Plan:
    """Stack the balls' nominals once, as the pass's stacks: its blocks come
    in stacks of lengths[s] rows of one size, block order running through
    the stacks in turn. Then group the blocks by (kind, size) and gather
    each group's nominals, radii and nominal factors once. Every
    oracle works with zero-mean Gaussians, so a ball with a nonzero nominal
    mean raises InvalidInputError. A ball with no oracle, of a kind outside
    ORACLE_KINDS and without a custom linearization (entropic OT, or a
    handle whose linearization is None), raises UnsupportedDivergenceError.
    A block that is not an AmbiguityBall raises InvalidInputError. These
    checks run here, so a solve that plans first fails on them before any
    work."""
    if not all(isinstance(ball, AmbiguityBall) for ball in balls):
        raise InvalidInputError("every block of an oracle pass needs an AmbiguityBall")
    if any(ball.nominal.mean.any() for ball in balls):
        raise InvalidInputError("ambiguity balls must have a zero nominal mean")
    where = [(s, r) for s, k in enumerate(lengths) for r in range(k)]
    members: dict = {}
    custom = []
    for i, ball in enumerate(balls):
        if ball.kind in ORACLE_KINDS:
            members.setdefault((ball.kind, ball.nominal.dim), []).append(i)
        elif ball.custom is None:
            raise UnsupportedDivergenceError(
                f"no linearization oracle for divergence kind '{ball.kind.value}'"
            )
        elif ball.custom.linearization is None:
            raise UnsupportedDivergenceError(
                f"divergence '{ball.custom.name}' has no linearization oracle"
            )
        else:
            custom.append((ball, i, *where[i]))
    start = [symmetrize(np.stack([ball.nominal.cov for ball in balls[end - k:end]]))
             for k, end in zip(lengths, itertools.accumulate(lengths))]
    groups = []
    for (kind, _), idx in members.items():
        parts = []
        for s, run in itertools.groupby((where[i] for i in idx), key=lambda place: place[0]):
            rows = [r for _, r in run]
            whole = len(rows) == lengths[s]
            parts.append((s, slice(None) if whole else np.array(rows), len(rows)))
        nominal = _gather(start, parts)
        groups.append(_Group(
            kind, np.array(idx), tuple(parts), nominal,
            np.array([balls[i].radius for i in idx], dtype=float),
            _nominal_factors(kind, nominal),
        ))
    return _Plan(len(balls), groups, custom, start)


def _gather(stacks, parts) -> np.ndarray:
    """A group's rows of stacks, in block order, with at most one concatenate."""
    rows = [stacks[s][r] for s, r, _ in parts]
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _run(plan: _Plan, grads: Sequence[np.ndarray], refs: Sequence[np.ndarray]) -> _Pass:
    """The oracle of every block of plan, given the gradients and references
    as stacks laid out as the plan's: each custom ball calls its handle's
    linearization, then each group gathers its rows and is solved on stacked
    arrays. The stacks are taken as checked; nothing here re-checks them."""
    size = plan.size
    targets = [np.empty_like(R) for R in refs]
    gamma, active = np.full(size, np.nan), np.zeros(size, dtype=bool)
    got, bound, steps = np.full(size, _DELTA), np.full(size, np.nan), np.zeros(size, dtype=int)
    upper = np.empty(size)
    for ball, i, s, r in plan.custom:
        G, ref = grads[s][r], refs[s][r]
        targets[s][r], active[i] = _custom_oracle(ball, G, ref)
        upper[i] = (G * (targets[s][r] - ref)).sum()
    for group in plan.groups:
        found = _solve_group(group, _gather(grads, group.parts), _gather(refs, group.parts))
        i = group.idx
        gamma[i], active[i], got[i], bound[i], steps[i], upper[i] = found[1:]
        start = 0
        for s, rows, count in group.parts:
            targets[s][rows] = found[0][start:start + count]
            start += count
    return _Pass(targets, gamma, active, got, bound, steps, upper)


def _results(found: _Pass) -> list[OracleResult]:
    """One OracleResult per block of a pass, in block order."""
    sigma = [S for stack in found.targets for S in stack]
    return [
        OracleResult(S, float(g), bool(a), float(f), float(b), int(k))
        for S, g, a, f, b, k in zip(sigma, found.gamma, found.active, found.got, found.bound,
                                    found.steps)
    ]


def oracle_pass(
    balls: Sequence[AmbiguityBall],
    grads: Sequence[np.ndarray],
    refs: Sequence[np.ndarray],
) -> list[OracleResult]:
    """Linearization oracle of every block, in block order.

    Block z maximizes <grads[z], Sigma - refs[z]> over balls[z]. Every gradient
    and reference is checked here (shape, finiteness). Built-in kinds are
    solved group by group on stacked arrays; a custom ball calls its
    handle's linearization. A solve plans the pass once (_plan) and runs
    the plan (_run) at every iteration on its own stacks; this plans and
    runs it once, each block a stack of one.
    """
    if not len(grads) == len(refs) == len(balls):
        raise InvalidInputError("oracle_pass needs one gradient and reference per ball")
    plan = _plan(balls, [1] * len(balls))
    dims = [ball.nominal.dim for ball in balls]
    G = [_stack([M], d, "gradient") for M, d in zip(grads, dims)]
    ref = [_stack([M], d, "reference") for M, d in zip(refs, dims)]
    return _results(_run(plan, G, ref))


def wasserstein_oracle(
    Gamma: np.ndarray,
    nominal_cov: np.ndarray,
    rho: float,
    sigma_ref: np.ndarray,
) -> OracleResult:
    """Maximize <Gamma, Sigma - sigma_ref> over the Gelbrich ball.

    The optimum is Sigma = g^2 (gI - Gamma)^{-1} Shat (gI - Gamma)^{-1} with g
    found by safeguarded Newton from the upper of the closed-form bounds
    lam1 (1 + sqrt(p1' Shat p1)/rho) and lam1 (1 + sqrt(Tr Shat)/rho), with
    bisection between them as the fallback.
    The output dominates lam_min(Shat) I by construction, because
    g (gI - Gamma)^{-1} has eigenvalues >= 1.
    """
    ball = AmbiguityBall(DivergenceKind.WASSERSTEIN2, MomentPair.zero_mean(nominal_cov), rho)
    return solve_oracle(ball, Gamma, sigma_ref)


def kl_oracle(
    Gamma: np.ndarray,
    nominal_cov: np.ndarray,
    rho: float,
    sigma_ref: np.ndarray,
) -> OracleResult:
    """Maximize <Gamma, Sigma - sigma_ref> over the KL-type divergence ball.

    The optimum is Sigma = g (g Shat^{-1} - Gamma)^{-1} where g solves
    2 rho = logdet(I - Shat Gamma / g) + Tr((gI - Shat Gamma)^{-1} Shat Gamma)
    inside the bracket (lam1, lam1 (1 + d/rho)], lam1 the top eigenvalue of
    Shat^{1/2} Gamma Shat^{1/2}, by safeguarded Newton with bisection as the
    fallback. The search starts at sqrt(sum_i lam_i^2 / (4 rho)), the root of
    the divergence's g^{-2} tail over those eigenvalues lam_i, where that
    lies inside the bracket, and at the upper end otherwise.
    """
    ball = AmbiguityBall(DivergenceKind.KULLBACK_LEIBLER, MomentPair.zero_mean(nominal_cov), rho)
    return solve_oracle(ball, Gamma, sigma_ref)


def fisher_oracle(
    Gamma: np.ndarray,
    nominal_cov: np.ndarray,
    rho: float,
    sigma_ref: np.ndarray,
) -> OracleResult:
    """Maximize <Gamma, Sigma - sigma_ref> over the Fisher divergence ball.

    Stationarity of the Lagrangian inverts the Fisher gradient
    Shat^{-2} - Sigma^{-2} to Sigma(g) = (Shat^{-2} - Gamma/g)^{-1/2}; g solves
    the constraint by safeguarded Newton, with bisection as the fallback,
    inside the closed-form bracket [lo, lo / (1 - (1 + rho/t)^{-2})],
    lo = lam_max(Shat Gamma Shat) (where the pencil loses definiteness) and
    t = Tr Shat^{-1}. The search starts at the root sqrt(c / rho) of the
    divergence's tail c g^{-2} where that lies inside the bracket, and at
    the upper end otherwise, then one Newton step further on the commuting
    model w sum_k phi(h_k / g), phi(x) = (1-x)^{-1/2} + (1-x)^{1/2} - 2, with
    h the eigenvalues of Shat Gamma Shat and w fitted to c, where that step
    lies strictly inside the bracket. Each later step is Newton on the
    reciprocal form of the model's order at the current g.
    """
    ball = AmbiguityBall(DivergenceKind.FISHER, MomentPair.zero_mean(nominal_cov), rho)
    return solve_oracle(ball, Gamma, sigma_ref)


def solve_oracle(
    ball: AmbiguityBall,
    Gamma: np.ndarray,
    sigma_ref: np.ndarray,
    lam_floor: float = 0.0,
) -> OracleResult:
    """The oracle for the ball's divergence kind: oracle_pass on one block. A
    searched Wasserstein output must keep lam_min >= lam_floor - 1e-10, for a
    finite lam_floor >= 0, else OracleError; lam_min(Shat) holds by construction."""
    if not _is_number(lam_floor) or lam_floor < 0.0:
        raise InvalidInputError(f"lam_floor must be a finite number >= 0, got {lam_floor!r}")
    res = oracle_pass([ball], [Gamma], [sigma_ref])[0]
    S = res.sigma_star
    if ball.kind is DivergenceKind.WASSERSTEIN2 and res.steps and lam_floor > 0.0 and not (
        _cholesky_certifies(S, 1e-10 - lam_floor) or _eigvalsh(S)[0] >= lam_floor - 1e-10
    ):
        raise OracleError("wasserstein oracle output violates its eigenvalue floor")
    return res
