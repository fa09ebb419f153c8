"""Finite-horizon LQG evaluation: Riccati sweep, Kalman filter, optimal cost.

For a linear system x_{t+1} = A_t x_t + B_t u_t + w_t observed through
y_t = C_t x_t + v_t with zero-mean Gaussian noise, this module computes the
optimal feedback gains (backward Riccati recursion), the filter covariances
and gains (forward Kalman recursion) and the optimal expected cost. The
filter gain L_t is the innovation gain, which equals
Sigma_filt[t] C_t^T V_t^{-1}; every V_t must be positive definite.

The Kalman time loop holds only what depends on the previous step: the
filtered covariance in information form, (I + S_t J_t)^{-1} S_t with
J_t = C_t^T V_t^{-1} C_t formed once for all t, and the prediction from it.
The symmetrization, the checks and the gains (a product) follow in batched
(T, d, d) calls after the loop, and the cost is two elementwise sums. A psd
or pd check is one batched Cholesky that certifies the rule; eigenvalues
are computed only where it fails, and then they decide (matops._first_below).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InvalidInputError
from .matops import (
    _check_finite, _check_square, _cholesky, _cholesky_certifies, _first_below, _float_array,
    _is_number, _solve, symmetrize,
)

_PD_TOL = 1e-10
_PIVOT_FLOOR = np.sqrt(_PD_TOL)  # the smallest Cholesky pivot a pd check accepts


def _check_horizon(T) -> None:
    """Raise InvalidInputError unless T is an integer >= 1 (bools are not)."""
    if not (_is_number(T, integer=True) and T >= 1):
        raise InvalidInputError("horizon T must be an integer >= 1")


@dataclass(frozen=True)
class SystemInstance:
    """Time-varying system and cost matrices over a horizon T.

    A, B, C cover t = 0..T-1; Q covers t = 0..T (Q[T] is the terminal cost);
    R covers t = 0..T-1. Q_t must be psd and R_t positive definite.
    """

    T: int
    A: np.ndarray  # (T, n, n)
    B: np.ndarray  # (T, n, m)
    C: np.ndarray  # (T, p, n)
    Q: np.ndarray  # (T+1, n, n)
    R: np.ndarray  # (T, m, m)

    def __post_init__(self):
        T = self.T
        _check_horizon(T)
        for name, arr, steps in (
            ("A", self.A, T), ("B", self.B, T), ("C", self.C, T),
            ("Q", self.Q, T + 1), ("R", self.R, T),
        ):
            arr = _float_array(arr, name)
            if arr.ndim != 3 or arr.shape[0] != steps:
                raise InvalidInputError(f"{name} must have shape ({steps}, ., .)")
            object.__setattr__(self, name, _check_finite(arr, name))
        n, m, p = self.n, self.m, self.p
        if self.A.shape[1:] != (n, n) or self.B.shape[1:] != (n, m):
            raise InvalidInputError("A/B dimensions inconsistent")
        if self.C.shape[1:] != (p, n):
            raise InvalidInputError("C dimensions inconsistent")
        if self.Q.shape[1:] != (n, n) or self.R.shape[1:] != (m, m):
            raise InvalidInputError("Q/R dimensions inconsistent")
        # lam_min(Q[t]) >= -1e-10 and lam_min(R[t]) >= 1e-10; the error names the first failing t
        for name, M, floor, what in (("Q", self.Q, -_PD_TOL, "psd"),
                                     ("R", self.R, _PD_TOL, "positive definite")):
            bad = _first_below(symmetrize(M), floor)
            if bad is not None:
                raise InvalidInputError(f"{name}[{bad[0]}] is not {what}")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.B.shape[2]

    @property
    def p(self) -> int:
        return self.C.shape[1]

    @classmethod
    def time_invariant(cls, A, B, C, Q, R, T: int, Qf=None) -> "SystemInstance":
        """Replicate constant matrices over the horizon (Qf defaults to Q)."""
        _check_horizon(T)
        A, B, C, Q, R = (_float_array(M, name) for M, name in zip((A, B, C, Q, R), "ABCQR"))
        Qf = Q if Qf is None else _float_array(Qf, "Qf")
        if Qf.shape != Q.shape:
            raise InvalidInputError(f"Qf must have Q's shape {Q.shape}, got {Qf.shape}")
        return cls(
            T=T,
            A=np.repeat(A[None], T, axis=0),
            B=np.repeat(B[None], T, axis=0),
            C=np.repeat(C[None], T, axis=0),
            Q=np.concatenate([np.repeat(Q[None], T, axis=0), Qf[None]], axis=0),
            R=np.repeat(R[None], T, axis=0),
        )


@dataclass(frozen=True)
class CovarianceProfile:
    """The adversary's decision variable: one covariance per noise term.

    X0 is the initial-state covariance, W[t] the process-noise covariance and
    V[t] the observation-noise covariance for t = 0..T-1. Kalman filtering
    requires every V[t] to be positive definite.
    """

    X0: np.ndarray
    W: np.ndarray  # (T, n, n)
    V: np.ndarray  # (T, p, p)

    def __post_init__(self):
        object.__setattr__(self, "X0", symmetrize(_check_square(self.X0, "X0")))
        for name in ("W", "V"):
            arr = _float_array(getattr(self, name), name)
            if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
                raise InvalidInputError(f"{name} must be a (T, d, d) array, got shape {arr.shape}")
            object.__setattr__(self, name, symmetrize(_check_finite(arr, name)))

    @property
    def T(self) -> int:
        return self.W.shape[0]

    def blocks(self) -> list[np.ndarray]:
        """Flatten to the per-noise-term order [X0, W_0..W_{T-1}, V_0..V_{T-1}]."""
        return [self.X0] + list(self.W) + list(self.V)

    @classmethod
    def _of(cls, X0, W, V) -> "CovarianceProfile":
        """A profile of arrays the library built itself, finite and exactly
        symmetric by construction, taken as they are: no copy and no check."""
        cov = object.__new__(cls)
        for name, arr in (("X0", X0), ("W", W), ("V", V)):
            object.__setattr__(cov, name, arr)
        return cov

    @classmethod
    def from_blocks(cls, blocks, T: int) -> "CovarianceProfile":
        """The profile of the 2T + 1 blocks in the order of blocks()."""
        _check_horizon(T)
        if len(blocks) != 2 * T + 1:
            raise InvalidInputError(f"horizon {T} needs {2 * T + 1} blocks, got {len(blocks)}")
        return cls(
            X0=blocks[0],
            W=np.stack(blocks[1 : T + 1]),
            V=np.stack(blocks[T + 1 : 2 * T + 1]),
        )


@dataclass(frozen=True)
class LqgSolution:
    """Riccati matrices, gains, filter covariances, and the optimal cost.

    P has T+1 entries with P[T] = Q_T. Sigma_pred has T+1 entries where
    Sigma_pred[t] is the covariance of x_t given y_0..y_{t-1}
    (Sigma_pred[0] = X0); Sigma_filt[t] conditions on y_0..y_t.
    """

    P: np.ndarray
    K: np.ndarray
    Sigma_filt: np.ndarray
    Sigma_pred: np.ndarray
    L: np.ndarray
    cost: float


def _check_system(sys) -> None:
    """Raise InvalidInputError unless sys is a SystemInstance."""
    if not isinstance(sys, SystemInstance):
        raise InvalidInputError(f"sys must be a SystemInstance, got {type(sys).__name__}")


def _riccati_step(P, A, B, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """One Riccati update, shared by riccati_backward and stationary.solve_dare,
    which reads the gain and the residual of its doubling solution from it:
    K = -(R + B^T P B)^{-1} B^T P A and
    P_next = A^T P A + Q - A^T P B (R + B^T P B)^{-1} B^T P A = A^T P A + Q + A^T P B K.
    """
    PB = P @ B
    BtPA = PB.T @ A
    K = -_solve(R + B.T @ PB, BtPA)
    return symmetrize(A.T @ P @ A + Q + BtPA.T @ K), K


def _repeats(M: np.ndarray) -> np.ndarray:
    """Whether M[t] equals M[t+1] bit for bit, for t = 0..len(M)-2."""
    bits = M.view(np.int64)
    return (bits[:-1] == bits[1:]).all(axis=(1, 2))


def riccati_backward(sys: SystemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Backward Riccati sweep; returns (P[0..T], K[0..T-1]).

    P_T = Q_T, and (P_t, K_t) is the _riccati_step of P_{t+1} with the
    step-t matrices. K is independent of the noise covariances.

    A converged tail is not recomputed. Once P_t equals P_{t+1} bit for bit,
    every earlier step whose A, B, Q, R equal step t's bit for bit repeats
    (P_t, K_t), so those rows are filled and the recursion resumes at the
    first step whose matrices differ. The result is bit-identical to the
    plain recursion. A step pays one byte comparison of P; which steps
    repeat their successor's matrices is found at the first fixed point, by
    four batched comparisons, so a sweep that never reaches one pays nothing
    more.
    """
    _check_system(sys)
    T, n, m = sys.T, sys.n, sys.m
    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R
    P = np.empty((T + 1, n, n))
    K = np.empty((T, m, n))
    P[T] = symmetrize(Q[T])
    breaks = None  # the steps s whose matrices differ from step s+1's
    t = T - 1
    while t >= 0:
        P[t], K[t] = _riccati_step(P[t + 1], A[t], B[t], Q[t], R[t])
        if t and P[t].tobytes() == P[t + 1].tobytes():
            if breaks is None:
                same = _repeats(A) & _repeats(B) & _repeats(Q[:-1]) & _repeats(R)
                breaks = np.flatnonzero(~same).tolist()
            while breaks and breaks[-1] >= t:
                breaks.pop()
            start = breaks[-1] + 1 if breaks else 0  # steps start..t share t's matrices
            P[start:t] = P[t]
            K[start:t] = K[t]
            t = start
        t -= 1
    return _check_finite(P, "Riccati sweep P"), K


def _first_not_pd(M: np.ndarray) -> tuple[int, str] | None:
    """The first block of a (k, d, d) stack that fails the pd check, with the
    reason, from one batched Cholesky of the symmetrized stack; None if none
    fails. A block fails when Cholesky cannot factor it ("not positive
    definite") or a pivot falls below sqrt(_PD_TOL) ("numerically
    singular"). One min over all pivots passes a stack; the per-block masks
    are built only after it fails. A block with non-finite entries does not
    fail here: Cholesky lets nan through, and the caller's finiteness checks
    name such a block."""
    piv = np.diagonal(_cholesky(symmetrize(M)), axis1=1, axis2=2)
    if piv.min() >= _PIVOT_FLOOR:
        return None
    bad = ~(piv >= _PIVOT_FLOOR).all(axis=1) & np.isfinite(M).all(axis=(1, 2))
    if not bad.any():
        return None
    t = int(bad.argmax())  # a block Cholesky cannot factor is all nan
    return t, ("not positive definite" if np.isnan(piv[t, 0])
               else "numerically singular (Cholesky pivot < 1e-5)")


def _check_updates(C, V, S, filt) -> None:
    """Check the measurement updates of the first k steps, batched, from their
    predicted and filtered covariances S and filt (k, n, n): E = C S C^T + V
    must be pd, and each filt finite and psd within -1e-8 (1 + ||S||_F).
    One unshifted batched Cholesky certifies every filt pd; only where it
    fails does matops._first_below check the psd rule. Raises the
    first failure in time order: a non-pd E or a lost psd at an earlier
    step comes first."""
    if not len(S):
        return
    bad = _first_not_pd(C @ (S @ C.swapaxes(1, 2)) + V)
    if bad is not None:
        t, why = bad
        _check_updates(C[:t], V[:t], S[:t], filt[:t])  # raises an earlier failure
        raise ConditioningError(f"innovation covariance at t={t} is {why}")
    _check_finite(filt, "filter covariance")
    if _cholesky_certifies(filt):  # pre-certificate: the pass path forms no per-block floor
        return
    lost = _first_below(filt, -1e-8 * (1.0 + np.sqrt((S * S).sum(axis=(1, 2)))))
    if lost is not None:
        raise ConditioningError(f"filter covariance lost psd at t={lost[0]}")


def kalman_forward(
    sys: SystemInstance, cov: CovarianceProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward Kalman covariance recursion; returns (Sigma_filt, Sigma_pred, L).

    Sigma_pred[0] = X0 and for t = 0..T-1, with S_t = Sigma_pred[t],
    E_t = C_t S_t C_t^T + V_t and J_t = C_t^T V_t^{-1} C_t:
      Sigma_filt[t] = (I + S_t J_t)^{-1} S_t = S_t - L_t C_t S_t,
      L_t = Sigma_filt[t] C_t^T V_t^{-1} = S_t C_t^T E_t^{-1}  (the gain),
      Sigma_pred[t+1] = A_t Sigma_filt[t] A_t^T + W_t.
    The time loop runs the update in information form, one n x n solve per
    step (Anderson & Moore, Optimal Filtering, 1979, ch. 6), and the
    prediction from it, unsymmetrized; V^{-1} C and J are formed once,
    batched. After the loop both stacks are symmetrized once and checked
    (_check_updates), and the gains are Sigma_filt (V^{-1} C)^T, a batched
    product. Every V_t must be positive definite; ConditioningError names
    the first singular V[t], non-pd innovation covariance or loss of filter
    psd.
    """
    _check_system(sys)
    if not isinstance(cov, CovarianceProfile):
        raise InvalidInputError(f"cov must be a CovarianceProfile, got {type(cov).__name__}")
    T, n, p = sys.T, sys.n, sys.p
    shapes = (cov.X0.shape, cov.W.shape[1:], cov.V.shape[1:])
    if cov.T != T or shapes != ((n, n), (n, n), (p, p)):
        raise InvalidInputError("covariance profile inconsistent with system dims")
    bad = _first_not_pd(cov.V)
    if bad is not None:
        raise ConditioningError(f"V[{bad[0]}] is {bad[1]}")
    VinvC = _solve(cov.V, sys.C)
    J = symmetrize(sys.C.swapaxes(1, 2) @ VinvC)
    A, At, W = sys.A, sys.A.swapaxes(1, 2), cov.W
    eye = np.eye(n)
    filt = np.empty((T, n, n))
    pred = np.empty((T + 1, n, n))
    pred[0] = cov.X0
    stop = T
    # an overflow surfaces as a typed error in the finiteness checks below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            S = pred[t]
            M = S @ J[t]
            M += eye
            try:
                filt[t] = filt_t = _solve(M, S)
            except np.linalg.LinAlgError:  # det(I + S J) = det(E) / det(V)
                stop = t
                break
            np.add(A[t] @ filt_t @ At[t], W[t], out=pred[t + 1])
        filt = symmetrize(filt[:stop])
        pred = symmetrize(pred[: stop + 1])
        _check_updates(sys.C[:stop], cov.V[:stop], pred[:stop], filt)
    if stop < T:
        raise ConditioningError(f"innovation covariance at t={stop} is singular")
    L = filt @ VinvC.swapaxes(1, 2)
    return filt, _check_finite(pred, "predicted covariance"), L


def lqg_value(sys: SystemInstance, cov: CovarianceProfile) -> LqgSolution:
    """Optimal LQG cost and all solution matrices for the given noise profile.

    cost = sum_t Tr((Q_t - P_t) Sigma_filt[t])
         + sum_{t=1..T} Tr(P_t Sigma_pred[t]) + Tr(P_0 X0).
    """
    P, K = riccati_backward(sys)
    filt, pred, L = kalman_forward(sys, cov)
    cost = _lqg_cost(sys, P, filt, pred)
    return LqgSolution(P=P, K=K, Sigma_filt=filt, Sigma_pred=pred, L=L, cost=cost)


def _lqg_cost(sys: SystemInstance, P, filt, pred) -> float:
    """The trace formula of lqg_value from the Riccati and filter sweeps, as
    two elementwise sums (every factor is symmetric)."""
    return float(np.sum((sys.Q[:-1] - P[:-1]) * filt) + np.sum(P * pred))

