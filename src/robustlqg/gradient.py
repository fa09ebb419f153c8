"""Exact gradient of the LQG value with respect to every covariance block.

The LQG cost is a composition of the forward Kalman covariance recursion and
a trace formula; its derivative is computed by a reverse (adjoint) sweep.
With S_t the predicted covariance, E_t = C_t S_t C_t^T + V_t, and
K_t = S_t C_t^T E_t^{-1}, the innovation gain, which equals kalman_forward's
gain L[t] = Sigma_filt[t] C_t^T V_t^{-1} (so this sweep solves no linear
system), the measurement update has the Joseph-form differential

    d Sigma_t = (I - K_t C_t) dS_t (I - K_t C_t)^T + K_t dV_t K_t^T,

so running the cost formula backwards gives, with adjoint Sbar_T = P_T,

    Sigmabar_t = (Q_t - P_t) + A_t^T Sbar_{t+1} A_t
    dW_t       = Sbar_{t+1}
    dV_t       = K_t^T Sigmabar_t K_t
    Sbar_t     = P_t + (I - K_t C_t)^T Sigmabar_t (I - K_t C_t)

and dX0 = Sbar_0. Substituting Sigmabar_t leaves the time loop one
congruence a step, Sbar_t = R_t + Phi_t^T Sbar_{t+1} Phi_t with
Phi_t = A_t (I - K_t C_t) and R_t = P_t + (I - K_t C_t)^T (Q_t - P_t) (I - K_t C_t),
both formed for all t before it; Sigmabar, dV and the symmetrized blocks
follow in batched calls after it. Gradients
follow the trace-pairing convention: they are the unique symmetric G with
df = Tr(G dSigma) for symmetric dSigma (off-diagonal entries are not
doubled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lqg import CovarianceProfile, SystemInstance, _lqg_cost, kalman_forward, riccati_backward
from .matops import _check_finite, symmetrize


@dataclass(frozen=True)
class GradientProfile:
    """Per-block symmetric gradients of the LQG value (trace pairing)."""

    dX0: np.ndarray
    dW: np.ndarray  # (T, n, n)
    dV: np.ndarray  # (T, p, p)

    def blocks(self) -> list[np.ndarray]:
        return [self.dX0] + list(self.dW) + list(self.dV)

    def inner(self, other: CovarianceProfile) -> float:
        """Trace inner product with a covariance profile."""
        total = float(np.sum(self.dX0 * other.X0))
        total += float(np.sum(self.dW * other.W))
        total += float(np.sum(self.dV * other.V))
        return total


def lqg_gradient(
    sys: SystemInstance, cov: CovarianceProfile
) -> tuple[float, GradientProfile]:
    """LQG value and its exact gradient in every covariance block.

    Runtime is a small constant multiple of a single value evaluation: the
    Riccati sweep, one forward Kalman sweep and one reverse sweep of the same
    length. The Riccati sweep does not depend on cov, so frank_wolfe.solve
    runs it once per solve, and differentiates an iterate by _adjoint alone,
    on the forward sweep that evaluated it.
    """
    P, _ = riccati_backward(sys)
    return _lqg_gradient(sys, P, cov)


def _lqg_gradient(
    sys: SystemInstance, P: np.ndarray, cov: CovarianceProfile
) -> tuple[float, GradientProfile]:
    """lqg_gradient given the Riccati sweep P of sys: one forward sweep, the
    cost and the _adjoint of that sweep."""
    sweep = kalman_forward(sys, cov)
    Sbar, dV = _adjoint(sys, P, sweep)
    return _lqg_cost(sys, P, sweep[0], sweep[1]), GradientProfile(dX0=Sbar[0], dW=Sbar[1:], dV=dV)


def _adjoint(sys: SystemInstance, P: np.ndarray, sweep: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The gradient from the Riccati sweep P of sys and a kalman_forward
    sweep (Sigma_filt, Sigma_pred, L) of it, by the reverse sweep alone, as
    two stacks: [dX0; dW] of shape (T+1, n, n), which is the adjoint Sbar,
    and dV. Sbar is symmetrized once, after the loop."""
    _, pred, gains = sweep
    T, A = sys.T, sys.A
    closed = np.eye(sys.n) - gains @ sys.C
    QP = sys.Q[:-1] - P[:-1]
    Phi = A @ closed
    Phit = Phi.swapaxes(1, 2)
    R = P[:-1] + closed.swapaxes(1, 2) @ QP @ closed
    Sbar = np.empty_like(pred)
    Sbar[T] = P[T]
    for t in range(T - 1, -1, -1):
        np.add(R[t], Phit[t] @ Sbar[t + 1] @ Phi[t], out=Sbar[t])
    Sbar = symmetrize(_check_finite(Sbar, "adjoint sweep"))
    sigbar = QP + A.swapaxes(1, 2) @ Sbar[1:] @ A
    return Sbar, symmetrize(gains.swapaxes(1, 2) @ sigbar @ gains)
