"""Random benchmark instances: bidiagonal dynamics with identity costs.

Instances are generated with a counter-based Philox4x64-10 generator so the
same seed reproduces bit-identical matrices across platforms and runs.
"""

from __future__ import annotations

import numpy as np

from .divergences import DivergenceKind
from .errors import InvalidInputError
from .frank_wolfe import NominalModel
from .lqg import CovarianceProfile, SystemInstance
from .matops import _is_number

RNG_ALGORITHM = "philox4x64-10"
SEED_BOUND = 2**128  # a Philox4x64 key has 128 bits


def instance_rng(seed: int) -> np.random.Generator:
    if not (_is_number(seed, integer=True) and 0 <= seed < SEED_BOUND):
        raise InvalidInputError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _random_covariances(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k random covariances U diag(lam) U^T, stacked (k, d, d). Block by
    block, the d x d normals and then lam, uniform on [1, 2], are drawn in
    turn; U is the sign-fixed QR factor of the normals. The QR, sign fix and
    product run once over all k blocks."""
    M = np.empty((k, d, d))
    lam = np.empty((k, d))
    for i in range(k):
        M[i] = rng.standard_normal((d, d))
        lam[i] = rng.uniform(1.0, 2.0, d)
    Qm, Rm = np.linalg.qr(M)
    Qm = Qm * np.sign(np.diagonal(Rm, axis1=1, axis2=2))[:, None, :]
    return (Qm * lam[:, None, :]) @ Qm.swapaxes(1, 2)


def random_covariance(d: int, rng: np.random.Generator):
    """U diag(lam) U^T with lam uniform on [1, 2] and U a sign-fixed QR factor."""
    return _random_covariances(d, 1, rng)[0]


def benchmark_dynamics(d: int) -> np.ndarray:
    """The benchmark A: 0.1 on the main and super diagonal."""
    A = 0.1 * np.eye(d)
    if d > 1:
        A += 0.1 * np.diag(np.ones(d - 1), 1)
    return A


def generate_instance(
    d: int,
    T: int,
    seed: int,
    kind: DivergenceKind = DivergenceKind.WASSERSTEIN2,
    rho: float = 0.1,
) -> tuple[SystemInstance, NominalModel]:
    """Benchmark instance: A has 0.1 on the diagonal and superdiagonal,
    B = C = Q_t = R_t = I_d, and random nominal covariances with eigenvalues
    in [1, 2]. Deterministic per seed."""
    if not all(_is_number(n, integer=True) and n >= 1 for n in (d, T)):
        raise InvalidInputError("d and T must be integers >= 1")
    if not (_is_number(rho) and rho >= 0):
        raise InvalidInputError(f"rho must be a finite number >= 0, got {rho!r}")
    rng = instance_rng(seed)
    eye = np.eye(d)
    sys = SystemInstance.time_invariant(benchmark_dynamics(d), eye, eye, eye, eye, T=T)
    blocks = _random_covariances(d, 2 * T + 1, rng)  # [X0, W_0.., V_0..]
    cov = CovarianceProfile(X0=blocks[0], W=blocks[1:T + 1], V=blocks[T + 1:])
    model = NominalModel.uniform(kind, cov, rho)
    return sys, model
