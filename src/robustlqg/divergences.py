"""Closed-form divergences between Gaussian moment pairs and ambiguity balls.

Four built-in divergence families are supported (2-Wasserstein via the
Gelbrich formula, a KL-type divergence, entropy-regularized optimal
transport, and the Fisher divergence), plus custom moment-based divergences:
a CustomDivergence handle passes its property gates when it is built, and
each ball of kind MOMENT_CUSTOM holds its handle. Values of +inf signal
infeasibility (e.g. KL from a singular covariance); +inf exceeds every
finite radius, so membership is one comparison for every kind, and
optimization code never consumes it.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, NumericError
from .matops import (
    _check_finite, _check_square, _cholesky_certifies, _is_number, sym_sqrt, symmetrize,
)

INFEASIBLE = float("inf")

_VALID_PAIR_TOL = 1e-10
# the property gates of a CustomDivergence: the seed of their random
# feasible pairs and the number of midpoint checks
_CHECK_SEED = 20240811
_NUM_CHECKS = 50


@dataclass(frozen=True)
class MomentPair:
    """A valid (mean, second moment) pair: M >= mean mean^T.

    The covariance Sigma = M - mean mean^T is formed once. Both arrays are
    read-only; a zero-mean pair's covariance is its second moment array.
    """

    mean: np.ndarray
    second_moment: np.ndarray

    def __post_init__(self):
        mean = _check_finite(np.asarray(self.mean, dtype=float).reshape(-1), "mean")
        M = symmetrize(_check_square(self.second_moment, "second moment"))
        if M.shape[0] != mean.shape[0]:
            raise InvalidInputError("mean and second moment dimensions differ")
        cov = M - np.outer(mean, mean) if mean.any() else M  # exactly symmetric; M at mean 0
        bad = _pair_violation(cov[None], M[None])
        if bad is not None:
            raise InvalidInputError(bad[1])
        M.flags.writeable = cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "second_moment", M)
        object.__setattr__(self, "_cov", cov)  # not a field: equality and repr ignore it

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cov(self) -> np.ndarray:
        return self._cov

    @classmethod
    def _of(cls, mean, second_moment, cov) -> "MomentPair":
        """A pair of read-only arrays the library checked itself, taken as
        they are: no copy and no check."""
        pair = object.__new__(cls)
        pair.__dict__.update(mean=mean, second_moment=second_moment, _cov=cov)
        return pair

    @classmethod
    def from_cov(cls, mean, cov) -> "MomentPair":
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        return cls(mean=mean, second_moment=cov + np.outer(mean, mean))

    @classmethod
    def zero_mean(cls, cov) -> "MomentPair":
        cov = np.asarray(cov, dtype=float)
        # shape[:1], so a 0-d cov reaches the square check, not an IndexError
        return cls(mean=np.zeros(cov.shape[:1]), second_moment=cov)


def _check_dims(a: MomentPair, b: MomentPair):
    if a.dim != b.dim:
        raise InvalidInputError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _logdet_pd(S: np.ndarray, what: str) -> float:
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        raise InvalidInputError(f"{what} must be positive definite")
    return float(logdet)


def _pair_violation(cov: np.ndarray, M: np.ndarray) -> Optional[tuple[int, str]]:
    """The first block of (k, d, d) stacks cov = M - mu mu^T, M symmetric,
    that breaks the moment-pair rule lam_min(cov) >= -1e-10 (1 + ||M||_F),
    as (index, the message MomentPair raises for it), or None. One shifted
    batched Cholesky certifies the rule for the whole stack; only where it
    fails do the eigenvalues run, and they alone decide."""
    tol = _VALID_PAIR_TOL * (1.0 + np.sqrt((M * M).sum(axis=(1, 2))))
    if _cholesky_certifies(cov, tol):
        return None
    lam = np.linalg.eigvalsh(cov)[:, 0]
    bad = np.flatnonzero(lam < -tol)
    if not bad.size:
        return None
    i = int(bad[0])
    return i, f"invalid moment pair: M - mu mu^T has eigenvalue {lam[i]:.3e}"


def _pd_violation(S: np.ndarray) -> Optional[int]:
    """The index of the first block of a (k, d, d) stack that breaks the pd
    floor lam_min(S) > 1e-12 ||S||_F, or None. The floor is relative, so the
    rule does not depend on the scale of S, and an exact zero is not pd. One
    shifted batched Cholesky certifies the rule for the whole stack; only
    where it fails do the eigenvalues run, and they alone decide."""
    S = symmetrize(S)
    tol = 1e-12 * np.sqrt((S * S).sum(axis=(1, 2)))
    if _cholesky_certifies(S, -tol):
        return None
    bad = np.flatnonzero(~(np.linalg.eigvalsh(S)[:, 0] > tol))
    return int(bad[0]) if bad.size else None


def _is_pd(S: np.ndarray) -> bool:
    """Whether a matrix passes the pd floor of _pd_violation."""
    return _pd_violation(S[None]) is None


def gelbrich(a: MomentPair, b: MomentPair) -> float:
    """Gelbrich distance between moment pairs; equals the 2-Wasserstein
    distance between the corresponding Gaussians.

    sqrt(||mu_a - mu_b||^2 + Tr(Sig_a + Sig_b - 2 (Sig_b^1/2 Sig_a Sig_b^1/2)^1/2))
    with the trace term clamped at 0 from below.
    """
    _check_dims(a, b)
    Sa, Sb = a.cov, b.cov
    root_b = sym_sqrt(Sb)
    # the cross term's rounding scales with ||Sa|| ||Sb||, not with its own
    # largest eigenvalue: for covariances with orthogonal ranges it is 0
    cross = sym_sqrt(root_b @ Sa @ root_b,
                     scale=float(np.linalg.norm(Sa) * np.linalg.norm(Sb)))
    trace_term = float(np.trace(Sa) + np.trace(Sb) - 2.0 * np.trace(cross))
    # the term is a difference of O(Tr) quantities; below the rounding floor
    # it is genuinely zero (the square root would otherwise amplify noise).
    # The floor is relative to the traces, so W2(sA, sB) = sqrt(s) W2(A, B)
    # holds at every scale
    if trace_term < 1e-12 * (np.trace(Sa) + np.trace(Sb)):
        trace_term = 0.0
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    return math.sqrt(mean_term + trace_term)


def kl_t_divergence(a: MomentPair, b: MomentPair) -> float:
    """KL-type divergence between moment pairs (nominal second):

    0.5 ((mu_a-mu_b)^T Sig_b^{-1} (mu_a-mu_b) + Tr(Sig_a Sig_b^{-1})
         - logdet(Sig_a Sig_b^{-1}) - d).

    Returns +inf when Sig_a is singular; raises when the nominal Sig_b is.
    """
    _check_dims(a, b)
    Sa, Sb = a.cov, b.cov
    if not _is_pd(Sb):
        raise InvalidInputError("nominal covariance must be positive definite")
    if not _is_pd(Sa):
        return INFEASIBLE
    Sb_inv = np.linalg.inv(Sb)
    dmu = a.mean - b.mean
    quad = float(dmu @ Sb_inv @ dmu)
    tr = float(np.trace(Sa @ Sb_inv))
    logdet = _logdet_pd(Sa, "covariance") - _logdet_pd(Sb, "nominal covariance")
    return 0.5 * (quad + tr - logdet - a.dim)


def _entropic_x(Sa: np.ndarray, Sb: np.ndarray, eps: float) -> np.ndarray:
    """X_eps(Sig_a) = (Sig_b^1/2 Sig_a Sig_b^1/2 + (eps/4)^2 I)^1/2 - (eps/4) I."""
    d = Sa.shape[0]
    root_b = sym_sqrt(Sb)
    inner = root_b @ Sa @ root_b + (eps / 4.0) ** 2 * np.eye(d)
    if np.linalg.eigvalsh(symmetrize(inner)).min() < 0.0:
        raise NumericError("entropic-OT inner radicand lost positivity")
    return sym_sqrt(inner) - (eps / 4.0) * np.eye(d)


def entropic_ot_squared(a: MomentPair, b: MomentPair, eps: float) -> float:
    """Squared entropy-regularized Bures-Wasserstein value (may be negative).

    ||mu_a - mu_b||^2 + Tr(Sig_a) + Tr(Sig_b) - 2 Tr(X_eps)
      - (eps/2) log((2 pi e)^{2d} (eps/2)^d det X_eps).

    The regularization makes this an unnormalized discrepancy: it need not
    vanish (or stay nonnegative) at a = b. Membership and minimum-radius
    logic compare this squared form against rho^2.
    """
    _check_dims(a, b)
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidInputError("entropic OT needs a finite eps > 0")
    Sa, Sb = a.cov, b.cov
    if not (_is_pd(Sa) and _is_pd(Sb)):
        raise InvalidInputError("entropic OT requires positive definite covariances")
    d = a.dim
    X = _entropic_x(Sa, Sb, eps)
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    log_arg = 2.0 * d * math.log(2.0 * math.pi * math.e) + d * math.log(eps / 2.0)
    log_arg += _logdet_pd(X, "X_eps")
    return (
        mean_term
        + float(np.trace(Sa) + np.trace(Sb) - 2.0 * np.trace(X))
        - 0.5 * eps * log_arg
    )


def entropic_ot(a: MomentPair, b: MomentPair, eps: float) -> float:
    """Entropy-regularized OT value between the Gaussians N(a), N(b).

    Square root of entropic_ot_squared; for large eps the squared value can
    be negative, in which case no real value exists and NumericError is
    raised (use entropic_ot_squared for membership logic).
    """
    sq = entropic_ot_squared(a, b, eps)
    if sq < 0.0:
        raise NumericError(
            f"entropic OT squared value {sq:.6g} is negative; "
            "use entropic_ot_squared"
        )
    return math.sqrt(sq)


def fisher_gaussian(a: MomentPair, b: MomentPair) -> float:
    """Fisher divergence (score-matching distance) between Gaussians:

    ||Sig_b^{-1}(mu_a - mu_b)||^2 + Tr(Sig_b^{-2} Sig_a - 2 Sig_b^{-1} + Sig_a^{-1}).
    """
    _check_dims(a, b)
    Sa, Sb = a.cov, b.cov
    if not _is_pd(Sb):
        raise InvalidInputError("nominal covariance must be positive definite")
    if not _is_pd(Sa):
        return INFEASIBLE
    Sb_inv = np.linalg.inv(Sb)
    dmu = Sb_inv @ (a.mean - b.mean)
    return float(
        dmu @ dmu
        + np.trace(Sb_inv @ Sb_inv @ Sa)
        - 2.0 * np.trace(Sb_inv)
        + np.trace(np.linalg.inv(Sa))
    )


class DivergenceKind(Enum):
    WASSERSTEIN2 = "wasserstein2"
    KULLBACK_LEIBLER = "kl"
    ENTROPIC_OT = "entropic_ot"
    FISHER = "fisher"
    MOMENT_CUSTOM = "custom"


@dataclass(frozen=True)
class CustomDivergence:
    """A moment divergence the library does not build in, for the balls of
    kind MOMENT_CUSTOM, which hold it.

    evaluate(candidate, nominal) -> float (may return +inf);
    linearization(gradient, nominal, rho, reference) -> covariance
    maximizing <gradient, Sigma> over the ball, or None if unavailable.

    Building a handle runs its property gates once, on random feasible pairs
    around the keyword-only nominal within radius rho, which the handle does
    not keep: identity at the nominal, convexity of the sublevel set
    (midpoints stay feasible), and the zero-mean implication when the
    nominal mean is zero, over _NUM_CHECKS pairs of random points drawn with
    seed _CHECK_SEED. A handle that fails one raises InvalidInputError, so
    no ball holds a handle that has not passed them. Handles are plain
    values: two of one name may coexist.
    """

    name: str
    evaluate: Callable[[MomentPair, MomentPair], float]
    linearization: Optional[Callable] = None
    _: KW_ONLY
    nominal: InitVar[MomentPair]
    rho: InitVar[float]

    def __post_init__(self, nominal: MomentPair, rho: float):
        if not (isinstance(nominal, MomentPair) and _is_number(rho) and rho >= 0.0):
            raise InvalidInputError("the gates need a MomentPair nominal and a finite rho >= 0")
        rng = np.random.default_rng(_CHECK_SEED)
        if self.evaluate(nominal, nominal) > 1e-12:
            raise InvalidInputError("custom divergence must vanish at the nominal")

        d = nominal.dim

        def random_feasible():
            for _ in range(200):
                mu = 0.1 * rng.standard_normal(d)
                A = rng.standard_normal((d, d))
                cov = nominal.cov + 0.1 * (A @ A.T)
                cand = MomentPair.from_cov(mu, cov)
                if self.evaluate(cand, nominal) <= rho:
                    return cand
            raise InvalidInputError("could not sample feasible points; ball looks empty")

        for _ in range(_NUM_CHECKS):
            p1, p2 = random_feasible(), random_feasible()
            mid = MomentPair(
                mean=0.5 * (p1.mean + p2.mean),
                second_moment=0.5 * (p1.second_moment + p2.second_moment),
            )
            if self.evaluate(mid, nominal) > rho + 1e-8:
                raise InvalidInputError(
                    f"custom divergence '{self.name}' fails sublevel-set convexity"
                )
            if np.linalg.norm(nominal.mean) == 0.0:
                zeroed = MomentPair(mean=np.zeros(d), second_moment=p1.second_moment)
                if self.evaluate(zeroed, nominal) > rho + 1e-8:
                    raise InvalidInputError(
                        f"custom divergence '{self.name}' fails zero-mean feasibility"
                    )


_PD_KINDS = frozenset({DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER})


def _not_pd_message(kind: DivergenceKind) -> str:
    return f"{kind.value} nominal covariance must be pd"


def _check_fields(kind, radius, eps, custom) -> None:
    """The checks of an AmbiguityBall that do not read its nominal: kind a
    DivergenceKind, radius a finite number >= 0, eps a finite number, > 0
    for entropic OT (bools are not numbers), and custom a CustomDivergence
    for the kind MOMENT_CUSTOM and None for every built-in kind."""
    if not isinstance(kind, DivergenceKind):
        raise InvalidInputError(f"kind must be a DivergenceKind, got {kind!r}")
    if kind is DivergenceKind.MOMENT_CUSTOM:
        if not isinstance(custom, CustomDivergence):
            raise InvalidInputError(f"a custom ball needs a CustomDivergence, got {custom!r}")
    elif custom is not None:
        raise InvalidInputError(f"a {kind.value} ball takes no custom divergence")
    if not (_is_number(radius) and radius >= 0.0):
        raise InvalidInputError("radius must be finite and nonnegative")
    if kind is DivergenceKind.ENTROPIC_OT:
        if not (_is_number(eps) and eps > 0.0):
            raise InvalidInputError("entropic OT needs a finite eps > 0")
    elif not _is_number(eps):
        raise InvalidInputError(f"eps must be a finite number, got {eps!r}")


@dataclass(frozen=True)
class AmbiguityBall:
    """All moment pairs within divergence radius rho of a nominal pair."""

    kind: DivergenceKind
    nominal: MomentPair
    radius: float
    eps: float = 0.0  # entropic-OT regularization
    custom: Optional[CustomDivergence] = None  # the divergence of a MOMENT_CUSTOM ball
    min_radius: float = field(default=0.0, init=False)

    def __post_init__(self):
        _check_fields(self.kind, self.radius, self.eps, self.custom)
        if self.kind in _PD_KINDS and _pd_violation(self.nominal.cov[None]) is not None:
            raise InvalidInputError(_not_pd_message(self.kind))
        if self.kind is DivergenceKind.ENTROPIC_OT:
            d = self.nominal.dim
            shifted = MomentPair.from_cov(
                self.nominal.mean, self.nominal.cov + 0.5 * self.eps * np.eye(d)
            )
            low_sq = entropic_ot_squared(shifted, self.nominal, self.eps)
            low = math.sqrt(low_sq) if low_sq > 0.0 else 0.0
            object.__setattr__(self, "min_radius", low)
            if self.radius < low - 1e-12:
                raise InvalidInputError(
                    f"entropic-OT ball is empty: rho={self.radius:.6g} < "
                    f"minimum feasible radius {low:.6g}"
                )

    @classmethod
    def _of(cls, kind: DivergenceKind, nominal: MomentPair, radius: float) -> "AmbiguityBall":
        """A ball of a kind other than entropic OT whose fields the library
        checked itself, taken as they are: no check."""
        ball = object.__new__(cls)
        ball.__dict__.update(kind=kind, nominal=nominal, radius=radius, eps=0.0, custom=None,
                             min_radius=0.0)
        return ball

    def divergence(self, candidate: MomentPair) -> float:
        """Divergence from the candidate to the nominal (Gaussian closed form)."""
        if self.kind is DivergenceKind.WASSERSTEIN2:
            return gelbrich(candidate, self.nominal)
        if self.kind is DivergenceKind.KULLBACK_LEIBLER:
            return kl_t_divergence(candidate, self.nominal)
        if self.kind is DivergenceKind.FISHER:
            return fisher_gaussian(candidate, self.nominal)
        if self.kind is DivergenceKind.ENTROPIC_OT:
            sq = entropic_ot_squared(candidate, self.nominal, self.eps)
            return math.sqrt(sq) if sq > 0.0 else 0.0
        return self.custom.evaluate(candidate, self.nominal)  # MOMENT_CUSTOM


def _zero_mean_balls(kind: DivergenceKind, blocks: np.ndarray, radius: float,
                     name: Callable[[int], str]) -> list[AmbiguityBall]:
    """The balls of kind and radius about the zero-mean nominals of a
    (k, d, d) float stack, with the checks that building each ball alone
    makes of its nominal run once over the stack: finite entries, the
    moment-pair rule and, for KL and Fisher, the pd floor (_pair_violation,
    _pd_violation). An error names the first failing block i as name(i),
    followed by the message building that block's ball alone raises. kind
    and radius are taken as checked (_check_fields), and kind must not be
    entropic OT, which needs an eps, nor MOMENT_CUSTOM, which needs a handle."""
    finite = np.isfinite(blocks).all(axis=(1, 2))
    k = blocks.shape[0] if finite.all() else int(finite.argmin())
    M = symmetrize(blocks[:k])  # the rules read the blocks before the first non-finite one
    bad = _pair_violation(M, M)
    pd = _pd_violation(M) if kind in _PD_KINDS else None
    if pd is not None and (bad is None or pd < bad[0]):
        bad = pd, _not_pd_message(kind)
    if bad is None and k < blocks.shape[0]:
        bad = k, "second moment has non-finite entries"
    if bad is not None:
        raise InvalidInputError(f"{name(bad[0])}: {bad[1]}")
    M.flags.writeable = False
    mean = np.zeros(M.shape[1])
    mean.flags.writeable = False
    return [AmbiguityBall._of(kind, MomentPair._of(mean, S, S), radius) for S in M]


def membership(ball: AmbiguityBall, candidate: MomentPair, tol: float = 1e-9) -> bool:
    """True iff divergence(N(candidate), nominal) <= rho + tol."""
    if candidate.dim != ball.nominal.dim:
        raise InvalidInputError("candidate dimension mismatch")
    return ball.divergence(candidate) <= ball.radius + tol
