"""Experiment drivers: solves with their convergence traces (over a list of
horizons, the runtime sweep), worst-case/nominal performance gaps over a
list of radii, and stationary solves. RUNNERS maps each experiment name to
its runner, and the CLI has one subcommand per name.

Each runner generates one summary row per solve, with the solve's trace and
the name of its trace file (None where the experiment keeps no traces), and
hands them to one loop, _drive. That loop alone writes the trace CSVs (one
column per FwRecord field), the summary CSV and the run directory's
metadata JSON, which carries the seed(s), a hash of the effective
configuration, the library version, the RNG algorithm, and wall time. Files
are written atomically (temp file + rename). No plots are produced; the
CSVs are meant to be consumed by external plotting.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import tempfile
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .divergences import AmbiguityBall, DivergenceKind, MomentPair
from .errors import InvalidInputError, UnsupportedDivergenceError
from .frank_wolfe import FwConfig, FwRecord, _inner, _stacked, solve
from .gradient import GradientProfile
from .instances import (
    RNG_ALGORITHM,
    SEED_BOUND,
    benchmark_dynamics,
    generate_instance,
    instance_rng,
    random_covariance,
)
from .lqg import CovarianceProfile
from .matops import _is_number
from .oracles import ORACLE_KINDS, oracle_pass
from .oracles import solve_oracle  # noqa: F401  unused; bench/tracer.py wraps this binding
from .stacked import build_stacked, kalman_policy_to_purified  # noqa: F401  unused; bench/tracer.py wraps these
from .stationary import StationarySystem, solve_stationary_fw

TRACE_HEADER = [f.name for f in fields(FwRecord)]
GAPS_HEADER = ["rho", "seed", "worst_case_gap", "nominal_gap"]
SOLVE_HEADER = ["T", "seed", "iterations", "converged", "stop", "objective", "final_gap",
                "wall_seconds"]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class ExperimentConfig:
    experiment: str = "solve"  # solve | gaps | stationary
    d: int = 10
    T: int | list = 10
    divergence: str = "wasserstein2"
    rho: float | list = 0.1
    seeds: list = field(default_factory=lambda: list(range(10)))
    output_dir: str = "runs"
    jobs: int = 1
    fw: FwConfig = field(default_factory=FwConfig)

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in RUNNERS:
            raise InvalidInputError(f"unknown experiment '{self.experiment}'")
        # jobs stays only because the benchmark's gaps workload passes
        # jobs=1; the next benchmark change stops passing it and deletes it
        if self.jobs != 1:
            raise InvalidInputError("jobs must be 1: every experiment runs serially")
        if not all(_is_number(n, integer=True) and n >= 1 for n in [self.d, *self.horizons]):
            raise InvalidInputError("d and T must be integers >= 1")
        if not isinstance(self.seeds, (list, tuple)) or not all(
                _is_number(seed, integer=True) and seed >= 0 for seed in self.seeds):
            raise InvalidInputError("seeds must be a list of integers >= 0")
        if any(seed >= SEED_BOUND for seed in self.seeds):
            raise InvalidInputError("seeds must be below 2**128, the Philox key range")
        if not isinstance(self.output_dir, str):
            raise InvalidInputError("output_dir must be a string")
        if not isinstance(self.fw, FwConfig):
            raise InvalidInputError("fw must be an FwConfig")
        if not all(_is_number(r) and r >= 0 for r in self.rhos):
            raise InvalidInputError("rho entries must be finite nonnegative numbers")
        # an empty list runs nothing, and a repeated entry solves twice
        for name, vals in (("seeds", self.seeds), ("T", self.horizons), ("rho", self.rhos)):
            if not vals or len(set(vals)) < len(vals):
                raise InvalidInputError(f"{name} must be nonempty, with no entry repeated")
        try:
            kind = DivergenceKind(self.divergence)
        except ValueError:
            raise InvalidInputError(f"unknown divergence '{self.divergence}'") from None
        if kind not in ORACLE_KINDS:
            raise UnsupportedDivergenceError(
                f"no linearization oracle for divergence '{self.divergence}'"
            )
        for name, value, runner in (("T", self.T, "solve"), ("rho", self.rho, "gaps")):
            if isinstance(value, list) and self.experiment != runner:
                raise InvalidInputError(f"this experiment expects a single {name}")

    @property
    def kind(self) -> DivergenceKind:
        return DivergenceKind(self.divergence)

    @property
    def rhos(self) -> list:
        """The radii to run: rho as a list, of one entry unless gaps."""
        return self.rho if isinstance(self.rho, list) else [self.rho]

    @property
    def horizons(self) -> list:
        """The horizons to run: T as a list, of one entry unless solve."""
        return self.T if isinstance(self.T, list) else [self.T]

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["schema"] = 1
        return out


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    atomic_write_text(path, _csv_text(header, rows))


def _blas_build() -> dict:
    """Name and version of the BLAS numpy was built against, each None where
    numpy does not report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def write_metadata(cfg: ExperimentConfig, outdir: Path, wall_seconds: float) -> None:
    """metadata.json: the config and its hash, the library and numpy versions,
    the BLAS build and thread variables (null when unknown or unset), the RNG
    and the wall time."""
    meta = {
        "schema": 1,
        "experiment": cfg.experiment,
        "seeds": list(cfg.seeds),
        "config_hash": config_hash(cfg),
        "numpy_version": np.__version__,
        "blas": _blas_build(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "library_version": __version__,
        "rng": RNG_ALGORITHM,
        "wall_seconds": wall_seconds,
    }
    atomic_write_text(outdir / "metadata.json", json.dumps(meta, indent=2) + "\n")


def _trace_csv_text(trace) -> str:
    return _csv_text(TRACE_HEADER, ([repr(v) for v in astuple(r)] for r in trace.records))


def _drive(cfg: ExperimentConfig, header: list[str], summary_name: str, rows) -> dict:
    """The one experiment loop. rows yields (summary row, trace, trace file
    name or None): each named trace is written as it comes, then the summary
    CSV and metadata.json, whose wall time covers the whole run. Returns
    {"all_converged", "rows"}."""
    outdir = Path(cfg.output_dir)
    t_start = time.perf_counter()
    summary = []
    all_converged = True
    for row, trace, name in rows:
        if name is not None:
            atomic_write_text(outdir / name, _trace_csv_text(trace))
        summary.append(row)
        all_converged &= trace.converged
    write_csv(outdir / summary_name, header, summary)
    write_metadata(cfg, outdir, time.perf_counter() - t_start)
    return {"all_converged": all_converged, "rows": summary}


def _summary(trace, wall: float) -> list:
    """The columns of SOLVE_HEADER after T and seed, of one solve."""
    return [len(trace.records), int(trace.converged), trace.stop, repr(trace.objective),
            repr(trace.gap), repr(wall)]


def _solves(cfg: ExperimentConfig):
    """Generate and solve the instance of each (rho, T, seed), over cfg.rhos,
    cfg.horizons and cfg.seeds; yields (rho, T, seed, nominal model, trace,
    wall seconds of the solve)."""
    for rho, T, seed in itertools.product(cfg.rhos, cfg.horizons, cfg.seeds):
        sys, model = generate_instance(cfg.d, T, seed, cfg.kind, rho)
        t0 = time.perf_counter()
        _, trace = solve(sys, model.ball_profile(), cfg=cfg.fw)
        yield rho, T, seed, model, trace, time.perf_counter() - t0


def run_solve(cfg: ExperimentConfig) -> dict:
    """One FW solve per (T, seed), T over cfg.horizons: its trace as
    trace_T{T}_seed{seed}.csv, and one row per solve in solve_summary.csv. A
    row gives the number of records, whether the solve converged, its stop
    reason (FwTrace.stop), the returned iterate's objective and certified gap
    (FwTrace.objective and FwTrace.gap, nan on a "max_iters" stop) and the
    solve's wall seconds. Over several horizons this is the runtime sweep;
    there is no SDP baseline column, as no SDP solver ships with the
    package."""
    return _drive(cfg, SOLVE_HEADER, "solve_summary.csv", (
        ([T, seed, *_summary(trace, wall)], trace, f"trace_T{T}_seed{seed}.csv")
        for _, T, seed, _, trace, wall in _solves(cfg)))


def policy_worst_case_cost(coeffs: GradientProfile, balls):
    """Worst-case expected cost of a fixed zero-mean linear policy.

    coeffs are the policy's per-block cost coefficients (trace pairing); for
    the Kalman/LQR policy designed at Sigma0 they are lqg_gradient(sys,
    Sigma0)[1] (Danskin). The cost is linear in the covariances, so its worst
    case is one oracle_pass from the nominals, which checks the coefficients
    (one per ball, each finite and of its ball's shape) and the balls' zero
    means. Returns (cost, per-block worst covariances).

    run_gaps does not call it: it reads the same costs from its solve's
    records. It stays public as the independent pricing of a policy, which
    the tests and the benchmark's tracer use.
    """
    grads = coeffs.blocks()
    worst = [r.sigma_star for r in
             oracle_pass(balls.blocks(), grads, balls.nominal_profile().blocks())]
    return _inner([G[None] for G in grads], [S[None] for S in worst]), worst


def policy_nominal_cost(coeffs: GradientProfile, cov: CovarianceProfile) -> float:
    """Expected cost of a fixed zero-mean linear policy at covariances cov."""
    return coeffs.inner(cov)


def run_gaps(cfg: ExperimentConfig) -> dict:
    """Worst-case and nominal performance gaps over a radius grid.

    For each (rho, seed): the nominally optimal policy is the Kalman/LQR
    policy designed at the nominal covariances, the robust policy the one
    designed at the FW worst case. A fixed linear policy's cost is linear in
    the covariances, with the adjoint gradient at its design covariances as
    coefficients (Danskin), and the LQG value J is positively homogeneous of
    degree 1, so J(Sigma) = <grad J(Sigma), Sigma> (Euler). So a FW record's
    objective is the cost of the policy designed at its iterate there, and
    the objective plus the surrogate gap is that policy's worst-case cost.
    Each row is read from the point's one solve: its first record (solve
    starts at the nominal) prices the nominal policy, its last record and
    trace.grads the robust one. No Riccati sweep, gradient or oracle pass
    runs outside the solve.

    The robust policy is the one designed at the last record's iterate. On
    a "gap" stop that is the returned iterate; on a "bound" stop it is the
    iterate before it, whose policy the stop certifies too: its worst-case
    cost is at most the last pass's upper bound, which lies within gap_tol
    of the optimum. A point whose first full step is already certified has
    one record, so both policies are the nominal one: worst_case_gap is 0.0,
    and the nominal policy is within gap_tol of the robust optimum.

    A solve that stops at cfg.fw.max_iters reports all_converged False, and
    its row describes the policy at the last record's iterate, the last one
    the solve priced. With max_iters=1 that is the nominal: worst_case_gap
    is 0.0 and nominal_gap is zero to rounding.
    """
    def rows():
        for rho, _, seed, model, trace, _ in _solves(cfg):
            first, last = trace.records[0], trace.records[-1]
            wc_nom = first.objective + first.fw_gap
            wc_rob = last.objective + last.fw_gap
            nom_rob = _inner(trace.grads, _stacked(model.X0, model.W, model.V))
            row = [float(rho), seed, repr(wc_nom - wc_rob), repr(nom_rob - first.objective)]
            yield row, trace, None

    return _drive(cfg, GAPS_HEADER, "gaps.csv", rows())


def run_stationary(cfg: ExperimentConfig) -> dict:
    """Stationary FW on the benchmark dynamics with time-invariant noise, one
    solve per seed: its trace as stationary_seed{seed}.csv, and one row per
    solve in stationary_summary.csv, with solve_summary.csv's columns but T."""
    eye = np.eye(cfg.d)
    ss = StationarySystem(A=benchmark_dynamics(cfg.d), B=eye, C=eye, Q=eye, R=eye)

    def rows():
        for seed in cfg.seeds:
            rng = instance_rng(seed)
            ball_w, ball_v = (
                AmbiguityBall(kind=cfg.kind, radius=cfg.rho,
                              nominal=MomentPair.zero_mean(random_covariance(cfg.d, rng)))
                for _ in "wv")
            t0 = time.perf_counter()
            _, _, trace = solve_stationary_fw(ss, ball_w, ball_v, cfg.fw)
            row = [seed, *_summary(trace, time.perf_counter() - t0)]
            yield row, trace, f"stationary_seed{seed}.csv"

    return _drive(cfg, SOLVE_HEADER[1:], "stationary_summary.csv", rows())


RUNNERS = {
    "solve": run_solve,
    "gaps": run_gaps,
    "stationary": run_stationary,
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    return RUNNERS[cfg.experiment](cfg)
