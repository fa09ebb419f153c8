"""Exact gradient of the LQG value with respect to every covariance block.

The LQG cost is a composition of the forward Kalman covariance recursion and
a trace formula; its derivative is computed by a reverse (adjoint) sweep.
With S_t the predicted covariance, E_t = C_t S_t C_t^T + V_t, and
K_t = S_t C_t^T E_t^{-1}, kalman_forward's gain L[t] (so this sweep solves no
linear system), the measurement update has the Joseph-form differential

    d Sigma_t = (I - K_t C_t) dS_t (I - K_t C_t)^T + K_t dV_t K_t^T,

so running the cost formula backwards gives, with adjoint Sbar_T = P_T,

    Sigmabar_t = (Q_t - P_t) + A_t^T Sbar_{t+1} A_t
    dW_t       = Sbar_{t+1}
    dV_t       = K_t^T Sigmabar_t K_t
    Sbar_t     = P_t + (I - K_t C_t)^T Sigmabar_t (I - K_t C_t)

and dX0 = Sbar_0. Gradients follow the trace-pairing convention: they are
the unique symmetric G with df = Tr(G dSigma) for symmetric dSigma
(off-diagonal entries are not doubled). A central finite-difference oracle
over the symmetric coordinate basis verifies the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, InvalidInputError
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

    Runtime is a small constant multiple of a single value evaluation: one
    forward Kalman sweep plus one reverse sweep of the same length.
    """
    P, _ = riccati_backward(sys)
    filt, pred, gains = kalman_forward(sys, cov)
    T, n = sys.T, sys.n

    value = _lqg_cost(sys, P, filt, pred)
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
    from .lqg import lqg_value

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
