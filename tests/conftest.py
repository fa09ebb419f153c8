import importlib
import pkgutil

import numpy as np
import pytest

import robustlqg
from robustlqg import matops
from robustlqg.lqg import CovarianceProfile, SystemInstance

# the LAPACK kernels of matops, through which the package makes every solve,
# factorization and eigendecomposition of its solve path
KERNELS = ("solve", "inv", "cholesky", "eigh", "eigvalsh", "slogdet")


def rand_spd(d, rng, lo=0.5, hi=2.5):
    Qm, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Qm @ np.diag(rng.uniform(lo, hi, d)) @ Qm.T


def rand_system(rng, n=3, m=2, p=2, T=4, stable=0.6):
    return SystemInstance(
        T=T,
        A=stable * rng.standard_normal((T, n, n)),
        B=rng.standard_normal((T, n, m)),
        C=rng.standard_normal((T, p, n)),
        Q=np.stack([rand_spd(n, rng) for _ in range(T + 1)]),
        R=np.stack([rand_spd(m, rng) for _ in range(T)]),
    )


def rand_profile(rng, sys, lo=0.5, hi=2.5):
    return CovarianceProfile(
        X0=rand_spd(sys.n, rng, lo, hi),
        W=np.stack([rand_spd(sys.n, rng, lo, hi) for _ in range(sys.T)]),
        V=np.stack([rand_spd(sys.p, rng, lo, hi) for _ in range(sys.T)]),
    )


def scalar_unit_system(T=1):
    eye = np.eye(1)
    return SystemInstance.time_invariant(eye, eye, eye, eye, eye, T=T)


def scalar_unit_profile(T=1):
    return CovarianceProfile(X0=np.eye(1), W=np.ones((T, 1, 1)), V=np.ones((T, 1, 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments;
    returns the list of recorded calls."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class KernelCalls(list):
    """The calls into the matops kernels, in call order, as (name, args) with
    name as in KERNELS."""

    def names(self) -> list[str]:
        return [name for name, _ in self]

    def of(self, name: str) -> list[tuple]:
        """The arguments of each call of one kernel."""
        return [args for called, args in self if called == name]


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the calls into the matops kernels, at every binding of them in
    the package (a module that imports matops._solve holds its own binding).
    Returns the KernelCalls list, which the test may clear."""
    calls = KernelCalls()
    modules = [importlib.import_module(f"robustlqg.{info.name}")
               for info in pkgutil.iter_modules(robustlqg.__path__)]
    for name in KERNELS:
        kernel = getattr(matops, f"_{name}")

        def wrapper(*args, name=name, kernel=kernel):
            calls.append((name, args))
            return kernel(*args)

        for module in modules:
            if getattr(module, f"_{name}", None) is kernel:
                monkeypatch.setattr(module, f"_{name}", wrapper)
    return calls


def accepted_line_searches(trace):
    """Iterations with a next one whose line search accepted a trial, i.e.
    that evaluated a trial and whose step is not the unevaluated 2/(2+k)
    fallback (an accepted model step may lie below it): the next iteration
    takes that trial's evaluation. The last record has a next one only on a
    bound stop, which reads the objective of that record's step."""
    with_next = trace.records if trace.stop == "bound" else trace.records[:-1]
    return sum(
        1 for r in with_next if r.ls_trials and r.step_size != 2.0 / (2.0 + r.iter)
    )
