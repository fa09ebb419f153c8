"""Benchmark workloads: instance pools, timed operations and accuracy gates.

Each workload draws instance seeds from a pool whose reference objectives are
stored under refs/ (regenerated by make_refs.py). An operation is one call
into the library's public API, with only the problem and its target gap
passed; step rule, oracle delta and oracle mode stay at library defaults.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from robustlqg import experiments, frank_wolfe, instances, stationary
from robustlqg.divergences import AmbiguityBall, DivergenceKind, MomentPair, membership
from robustlqg.frank_wolfe import FwConfig
from robustlqg.instances import instance_rng, random_covariance
from robustlqg.lqg import SystemInstance, lqg_value
from robustlqg.matops import spectral_radius
from robustlqg.stationary import StationarySystem, stationary_cost

REFS_DIR = Path(__file__).resolve().parent / "refs"

# The gate's oracle factor is fixed here rather than read from FwConfig, so a
# change that lowers oracle_delta cannot loosen the gate.
GATE_DELTA = 0.95
MEMBERSHIP_TOL = 1e-8
NOMINAL_GAP_SHARE = 0.01  # README contract: nominal_gap <= 1% of the nominal optimum

W2 = DivergenceKind.WASSERSTEIN2
KL = DivergenceKind.KULLBACK_LEIBLER
FISHER = DivergenceKind.FISHER


@dataclass(frozen=True)
class Spec:
    """One workload's instance family. Instance seeds 0..pool-1 have stored
    references; a run uses per_run of them, drawn from the workload seed."""

    name: str
    family: str  # paper | hard | stationary | gaps
    pool: int
    per_run: int
    dims: tuple
    T: int
    kinds: tuple
    rhos: tuple
    gap_tol: float

    def instance_seeds(self, seed: int) -> list[int]:
        return sorted(random.Random(seed).sample(range(self.pool), self.per_run))


SPECS = {
    # the paper's family; FW stops after 2-3 iterations, so the per-iteration
    # fixed cost (101 oracle calls) dominates
    "paper": Spec("paper", "paper", 8, 6, (10,), 50, (W2, KL, FISHER), (0.1,), 1e-3),
    # near-unstable dynamics: 100+ FW iterations at rho = 1; no Fisher, whose
    # rho = 1 solve alone takes about 50 s at this gap
    "hard": Spec("hard", "hard", 12, 1, (10,), 20, (W2, KL), (0.1, 1.0), 1e-4),
    # infinite horizon: finite-difference gradients over stationary_cost
    "stationary": Spec("stationary", "stationary", 6, 1, (3, 10), 0, (W2, KL), (0.1,), 1e-3),
    # T = 19 is the largest horizon under the 200-row stacked-matrix cap at d = 10
    "gaps": Spec("gaps", "gaps", 8, 3, (10,), 19, (W2, KL), (0.1, 1.0, 2.0), 1e-3),
}

# Tiny instances of the same families, for the self-test and the warm-up.
SMOKE_SPECS = {
    "paper": Spec("smoke-paper", "paper", 2, 1, (2,), 3, (W2, KL, FISHER), (0.1,), 1e-3),
    "hard": Spec("smoke-hard", "hard", 2, 1, (3,), 4, (W2, KL), (0.1, 1.0), 1e-4),
    "stationary": Spec("smoke-stationary", "stationary", 2, 1, (2, 3), 0, (W2, KL), (0.1,), 1e-3),
    "gaps": Spec("smoke-gaps", "gaps", 2, 1, (2,), 2, (W2, KL), (0.1, 1.0, 2.0), 1e-3),
}


@dataclass
class Outcome:
    """Gate verdict for one operation."""

    failures: list = field(default_factory=list)
    iters: int = 0
    subopt_over_tol: float | None = None
    iter_ms: list = field(default_factory=list)  # FwTrace wall_ms of every iteration
    gaps_row: tuple | None = None  # gaps: (worst_case_gap, nominal_gap)
    excess: float = -float("inf")  # max over final blocks of divergence - radius
    accepts: int = 0  # iterations whose step beat the 2/(2+k) fallback (line search)


@dataclass
class Op:
    key: str
    params: dict
    fingerprint: str
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any, dict], Outcome]  # gate: (run result, reference entry)
    inputs: dict  # the problem data, for make_refs.py
    group: tuple = ()  # gaps: (kind, seed) series checked for monotonicity in rho


def _digest(arrays) -> str:
    """Hash of arrays rounded to 10 decimals, so the last-ulp noise of a
    different LAPACK build does not change it."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.round(np.asarray(a, dtype=float), 10) + 0.0  # maps -0.0 to 0.0
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fingerprint(params: dict, arrays) -> str:
    blob = json.dumps({"params": params, "data": _digest(arrays)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _key(params: dict) -> str:
    return "/".join(f"{k}={params[k]}" for k in sorted(params))


def hard_system(d: int, T: int) -> SystemInstance:
    """A = 0.95 I + 0.3 superdiag rescaled to spectral radius 0.95; B=C=Q=R=I."""
    A = 0.95 * np.eye(d) + 0.3 * np.diag(np.ones(d - 1), 1)
    A *= 0.95 / spectral_radius(A)
    eye = np.eye(d)
    return SystemInstance.time_invariant(A, eye, eye, eye, eye, T=T)


def benchmark_stationary_system(d: int) -> StationarySystem:
    """The benchmark dynamics as run_stationary builds them."""
    A = 0.1 * np.eye(d)
    if d > 1:
        A += 0.1 * np.diag(np.ones(d - 1), 1)
    eye = np.eye(d)
    return StationarySystem(A=A, B=eye, C=eye, Q=eye, R=eye)


def _gate(trace, finals, objective: float, ref: dict, gap_tol: float, gate: bool = True) -> Outcome:
    """Solve gate: the solve converged, every final block passes membership
    at MEMBERSHIP_TOL, and the objective lies in
    [ref - gap_tol/GATE_DELTA - tol, ref + tol]. finals pairs each ball with
    its final block. With gate unset the same numbers are recorded and
    nothing fails."""
    out = Outcome(
        iters=len(trace.records),
        iter_ms=[r.wall_ms for r in trace.records],
        accepts=sum(1 for r in trace.records if r.step_size > 2.0 / (2.0 + r.iter)),
        subopt_over_tol=(ref["objective"] - objective) / gap_tol,
    )
    for z, (ball, block) in enumerate(finals):
        pair = MomentPair.zero_mean(block)
        out.excess = max(out.excess, ball.divergence(pair) - ball.radius)
        if gate and not membership(ball, pair, MEMBERSHIP_TOL):
            out.failures.append(f"final block {z} outside its ball")
    if gate and not trace.converged:
        out.failures.append("solve did not converge")
    lo = ref["objective"] - gap_tol / GATE_DELTA - ref["tol"]
    hi = ref["objective"] + ref["tol"]
    if gate and not lo <= objective <= hi:
        out.failures.append(f"objective {objective!r} outside [{lo!r}, {hi!r}]")
    return out


def _profile_gate(sys, balls, final, trace, ref, gap_tol, gate: bool = True) -> Outcome:
    finals = zip(balls.blocks(), final.blocks())
    return _gate(trace, finals, lqg_value(sys, final).cost, ref, gap_tol, gate)


def _finite_horizon_ops(spec: Spec, seeds) -> list[Op]:
    d, T = spec.dims[0], spec.T
    cfg = FwConfig(gap_tol=spec.gap_tol)
    ops = []
    hard = hard_system(d, T) if spec.family == "hard" else None
    for seed in seeds:
        for kind in spec.kinds:
            for rho in spec.rhos:
                sys, model = instances.generate_instance(d, T, seed, kind, rho)
                if hard is not None:
                    sys = hard
                balls = model.ball_profile()
                params = {"family": spec.family, "d": d, "T": T, "seed": seed,
                          "kind": kind.value, "rho": rho}
                arrays = (sys.A, sys.B, sys.C, sys.Q, sys.R, model.X0, model.W, model.V)

                def run(sys=sys, balls=balls):
                    return frank_wolfe.solve(sys, balls, cfg=cfg)

                def check(result, ref, sys=sys, balls=balls):
                    final, trace = result
                    return _profile_gate(sys, balls, final, trace, ref, spec.gap_tol)

                ops.append(Op(_key(params), params, fingerprint(params, arrays), run, check,
                              {"sys": sys, "balls": balls}))
    return ops


def _stationary_ops(spec: Spec, seeds) -> list[Op]:
    cfg = FwConfig(gap_tol=spec.gap_tol)
    ops = []
    for seed in seeds:
        for d in spec.dims:
            ss = benchmark_stationary_system(d)
            for kind in spec.kinds:
                for rho in spec.rhos:
                    rng = instance_rng(seed)
                    Sw, Sv = random_covariance(d, rng), random_covariance(d, rng)
                    bw = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(Sw), radius=rho)
                    bv = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(Sv), radius=rho)
                    params = {"family": spec.family, "d": d, "seed": seed,
                              "kind": kind.value, "rho": rho}
                    arrays = (ss.A, ss.B, ss.C, ss.Q, ss.R, Sw, Sv)

                    def run(ss=ss, bw=bw, bv=bv):
                        return stationary.solve_stationary_fw(ss, bw, bv, cfg)

                    def check(result, ref, ss=ss, bw=bw, bv=bv):
                        Sw_star, Sv_star, trace = result
                        objective = stationary_cost(ss, Sw_star, Sv_star)[0]
                        return _gate(trace, ((bw, Sw_star), (bv, Sv_star)), objective, ref,
                                     spec.gap_tol)

                    ops.append(Op(_key(params), params, fingerprint(params, arrays), run, check,
                                  {"ss": ss, "bw": bw, "bv": bv}))
    return ops


@contextmanager
def captured_solves():
    """Record (sys, balls, final, trace) of each FW solve run_gaps makes."""
    got = []
    inner = experiments.solve

    def capturing(sys, balls, *args, **kwargs):
        final, trace = inner(sys, balls, *args, **kwargs)
        got.append((sys, balls, final, trace))
        return final, trace

    experiments.solve = capturing
    try:
        yield got
    finally:
        experiments.solve = inner


def _gaps_ops(spec: Spec, seeds, out_dir: Path) -> list[Op]:
    d, T = spec.dims[0], spec.T
    ops = []
    for seed in seeds:
        for kind in spec.kinds:
            for rho in spec.rhos:
                sys, model = instances.generate_instance(d, T, seed, kind, rho)
                params = {"family": spec.family, "d": d, "T": T, "seed": seed,
                          "kind": kind.value, "rho": rho}
                arrays = (sys.A, sys.B, sys.C, sys.Q, sys.R, model.X0, model.W, model.V)
                cfg = experiments.ExperimentConfig(
                    experiment="gaps", d=d, T=T, divergence=kind.value, rho=[rho],
                    seeds=[seed], output_dir=str(out_dir / f"{spec.name}-{kind.value}-{rho}-s{seed}"),
                    jobs=1, fw=FwConfig(gap_tol=spec.gap_tol),
                )

                def run(cfg=cfg):
                    with captured_solves() as solves:
                        summary = experiments.run_gaps(cfg)
                    return summary, solves

                def check(result, ref):
                    # the gate is the README's gap contracts; the inner solve's
                    # suboptimality and ball excess are recorded, not gated
                    summary, solves = result
                    if len(solves) != 1:
                        return Outcome(failures=[f"expected 1 FW solve, saw {len(solves)}"])
                    out = _profile_gate(*solves[0], ref, spec.gap_tol, gate=False)
                    if not summary["all_converged"]:
                        out.failures.append("run_gaps reports a non-converged solve")
                    _, _, wc_gap, nom_gap = summary["rows"][0]
                    if float(wc_gap) < 0.0:
                        out.failures.append(f"worst_case_gap {wc_gap} < 0")
                    if float(nom_gap) > NOMINAL_GAP_SHARE * ref["nominal_opt"]:
                        out.failures.append(
                            f"nominal_gap {nom_gap} above 1% of the nominal optimum")
                    out.gaps_row = (float(wc_gap), float(nom_gap))
                    return out

                inputs = {"sys": sys, "balls": model.ball_profile(),
                          "nominal": model.nominal_profile()}
                ops.append(Op(_key(params), params, fingerprint(params, arrays), run, check,
                              inputs, group=(kind.value, seed)))
    return ops


def build_ops(spec: Spec, seeds, out_dir: Path) -> list[Op]:
    if spec.family in ("paper", "hard"):
        return _finite_horizon_ops(spec, seeds)
    if spec.family == "stationary":
        return _stationary_ops(spec, seeds)
    return _gaps_ops(spec, seeds, out_dir)


def check_series(ops: list[Op], outcomes: list[Outcome]) -> None:
    """gaps: worst_case_gap must increase in rho within each (kind, seed).

    ops are in increasing-rho order within a group; a non-increase fails the
    larger-rho point."""
    last: dict = {}
    for op, out in zip(ops, outcomes):
        row = out.gaps_row
        if row is None:
            continue
        prev = last.get(op.group)
        if prev is not None and not row[0] > prev[1]:
            out.failures.append(
                f"worst_case_gap {row[0]!r} not above {prev[1]!r} at rho {prev[0]}")
        last[op.group] = (op.params["rho"], row[0])


class RefError(RuntimeError):
    """A stored reference is missing or was made for different instance data."""


def refs_path(spec: Spec) -> Path:
    return REFS_DIR / f"{spec.family}.json"


def load_refs(spec: Spec, ops: list[Op]) -> list[dict]:
    """Reference entries for ops, matched by fingerprint; raises RefError."""
    with open(refs_path(spec), encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    by_key = {e["key"]: fp for fp, e in entries.items()}
    out = []
    for op in ops:
        entry = entries.get(op.fingerprint)
        if entry is None:
            if op.key in by_key:
                raise RefError(
                    f"fingerprint mismatch for {op.key}: instance {op.fingerprint}, stored "
                    f"{by_key[op.key]}; the instance data changed, regenerate with make_refs.py")
            raise RefError(f"no stored reference for {op.key}; regenerate with make_refs.py")
        out.append(entry)
    return out
