"""Closed-form divergences between Gaussian moment pairs and ambiguity balls.

Four built-in divergence families are supported (2-Wasserstein via the
Gelbrich formula, a KL-type divergence, entropy-regularized optimal
transport, and the Fisher divergence), plus a registration interface for
custom moment-based divergences. Values of +inf signal infeasibility
(e.g. KL from a singular covariance); membership tests branch on it
explicitly and optimization code never consumes it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, NumericError, UnsupportedDivergenceError
from .matops import _check_finite, _check_square, sym_sqrt, symmetrize

INFEASIBLE = float("inf")

_VALID_PAIR_TOL = 1e-10


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
        lam = np.linalg.eigvalsh(cov).min()
        if lam < -_VALID_PAIR_TOL * (1.0 + np.linalg.norm(M)):
            raise InvalidInputError(f"invalid moment pair: M - mu mu^T has eigenvalue {lam:.3e}")
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
    def from_cov(cls, mean, cov) -> "MomentPair":
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        return cls(mean=mean, second_moment=cov + np.outer(mean, mean))

    @classmethod
    def zero_mean(cls, cov) -> "MomentPair":
        cov = np.asarray(cov, dtype=float)
        return cls(mean=np.zeros(cov.shape[0]), second_moment=cov)


def _check_dims(a: MomentPair, b: MomentPair):
    if a.dim != b.dim:
        raise InvalidInputError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _logdet_pd(S: np.ndarray, what: str) -> float:
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        raise InvalidInputError(f"{what} must be positive definite")
    return float(logdet)


def _is_pd(S: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.linalg.eigvalsh(symmetrize(S)).min() > tol * (1.0 + np.linalg.norm(S)))


def gelbrich(a: MomentPair, b: MomentPair) -> float:
    """Gelbrich distance between moment pairs; equals the 2-Wasserstein
    distance between the corresponding Gaussians.

    sqrt(||mu_a - mu_b||^2 + Tr(Sig_a + Sig_b - 2 (Sig_b^1/2 Sig_a Sig_b^1/2)^1/2))
    with the trace term clamped at 0 from below.
    """
    _check_dims(a, b)
    Sa, Sb = a.cov, b.cov
    root_b = sym_sqrt(Sb)
    cross = sym_sqrt(root_b @ Sa @ root_b)
    trace_term = float(np.trace(Sa) + np.trace(Sb) - 2.0 * np.trace(cross))
    # the term is a difference of O(Tr) quantities; below the rounding floor
    # it is genuinely zero (the square root would otherwise amplify noise)
    if trace_term < 1e-12 * (1.0 + np.trace(Sa) + np.trace(Sb)):
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
    if eps <= 0.0:
        raise InvalidInputError("eps must be positive")
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
    """A user-registered moment divergence.

    evaluate(candidate, nominal) -> float (may return +inf);
    linearization(gradient, nominal, rho, reference, delta) -> covariance
    maximizing <gradient, Sigma> over the ball, or None if unavailable.
    """

    name: str
    evaluate: Callable[[MomentPair, MomentPair], float]
    linearization: Optional[Callable] = None


_registry: dict[str, CustomDivergence] = {}
_registry_lock = threading.Lock()


def register_moment_divergence(
    handle: CustomDivergence,
    nominal: MomentPair,
    rho: float,
    rng: Optional[np.random.Generator] = None,
    num_checks: int = 50,
) -> None:
    """Register a custom moment divergence after randomized property gates.

    Checks, on random feasible pairs around the nominal: identity at the
    nominal, convexity of the sublevel set (midpoints stay feasible), and
    the zero-mean implication when the nominal mean is zero. Registration
    is write-once.
    """
    rng = rng if rng is not None else np.random.default_rng(20240811)
    if handle.evaluate(nominal, nominal) > 1e-12:
        raise InvalidInputError("custom divergence must vanish at the nominal")

    d = nominal.dim

    def random_feasible():
        for _ in range(200):
            mu = 0.1 * rng.standard_normal(d)
            A = rng.standard_normal((d, d))
            cov = nominal.cov + 0.1 * (A @ A.T)
            cand = MomentPair.from_cov(mu, cov)
            if handle.evaluate(cand, nominal) <= rho:
                return cand
        raise InvalidInputError("could not sample feasible points; ball looks empty")

    for _ in range(num_checks):
        p1, p2 = random_feasible(), random_feasible()
        mid = MomentPair(
            mean=0.5 * (p1.mean + p2.mean),
            second_moment=0.5 * (p1.second_moment + p2.second_moment),
        )
        if handle.evaluate(mid, nominal) > rho + 1e-8:
            raise InvalidInputError(
                f"custom divergence '{handle.name}' fails sublevel-set convexity"
            )
        if np.linalg.norm(nominal.mean) == 0.0:
            zeroed = MomentPair(mean=np.zeros(d), second_moment=p1.second_moment)
            if handle.evaluate(zeroed, nominal) > rho + 1e-8:
                raise InvalidInputError(
                    f"custom divergence '{handle.name}' fails zero-mean feasibility"
                )
    with _registry_lock:
        if handle.name in _registry:
            raise InvalidInputError(f"divergence '{handle.name}' already registered")
        _registry[handle.name] = handle


def get_custom_divergence(name: str) -> CustomDivergence:
    try:
        return _registry[name]
    except KeyError:
        raise UnsupportedDivergenceError(f"no registered divergence '{name}'") from None


@dataclass(frozen=True)
class AmbiguityBall:
    """All moment pairs within divergence radius rho of a nominal pair."""

    kind: DivergenceKind
    nominal: MomentPair
    radius: float
    eps: float = 0.0  # entropic-OT regularization
    custom_name: str = ""
    min_radius: float = field(default=0.0, init=False)

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise InvalidInputError("radius must be finite and nonnegative")
        if self.kind in (DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER):
            if not _is_pd(self.nominal.cov):
                raise InvalidInputError(f"{self.kind.value} nominal covariance must be pd")
        if self.kind is DivergenceKind.ENTROPIC_OT:
            if self.eps <= 0.0:
                raise InvalidInputError("entropic OT needs eps > 0")
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
        if self.kind is DivergenceKind.MOMENT_CUSTOM:
            return get_custom_divergence(self.custom_name).evaluate(
                candidate, self.nominal
            )
        raise UnsupportedDivergenceError(str(self.kind))


def membership(ball: AmbiguityBall, candidate: MomentPair, tol: float = 1e-9) -> bool:
    """True iff divergence(N(candidate), nominal) <= rho + tol."""
    if candidate.dim != ball.nominal.dim:
        raise InvalidInputError("candidate dimension mismatch")
    if ball.kind is DivergenceKind.ENTROPIC_OT:
        sq = entropic_ot_squared(candidate, ball.nominal, ball.eps)
        return sq <= 0.0 or math.sqrt(sq) <= ball.radius + tol
    value = ball.divergence(candidate)
    if math.isinf(value):
        return False
    return value <= ball.radius + tol


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
