"""Regenerate the stored reference objectives under bench/refs/.

Every instance in each workload's pool (and its smoke variant) is solved to
a much smaller gap than the benchmark asks for, and the objective is stored
under a fingerprint of the instance parameters and data. The benchmark never
computes references itself; it loads these and fails on a fingerprint
mismatch.

    python3 bench/make_refs.py                 # every workload
    python3 bench/make_refs.py --workload hard # one workload

Finite-horizon references use step_rule="line_search" at gap 1e-7. The
stationary solver has no line search, so its references come from a
Frank-Wolfe loop here with exact (golden-section) line search over
stationary_cost and central-difference gradients, stopped at gap 1e-6.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from robustlqg.divergences import MomentPair, membership  # noqa: E402
from robustlqg.frank_wolfe import FwConfig, solve  # noqa: E402
from robustlqg.lqg import lqg_value  # noqa: E402
from robustlqg.matops import symmetrize  # noqa: E402
from robustlqg.oracles import solve_oracle  # noqa: E402
from robustlqg.stationary import stationary_cost  # noqa: E402

from workloads import (  # noqa: E402
    GATE_DELTA, MEMBERSHIP_TOL, SMOKE_SPECS, SPECS, build_ops, refs_path,
)

REF_GAP = 1e-7
STATIONARY_REF_GAP = 1e-6
# Each oracle may fall short of delta * (dual bound) by a rounding floor of
# 1e-9 of its scale, so a reference is trusted to 1e-8 of its magnitude.
REF_REL_TOL = 1e-8
OUT_DIR = ROOT / "bench" / "out"


def _tol(objective: float, gap: float) -> float:
    return max(gap, 0.0) / GATE_DELTA + REF_REL_TOL * max(1.0, abs(objective))


def finite_horizon_ref(sys, balls) -> dict:
    final, trace = solve(sys, balls, cfg=FwConfig(gap_tol=REF_GAP, step_rule="line_search",
                                                  max_iters=20000))
    if not trace.converged:
        raise RuntimeError("reference solve did not converge")
    for ball, block in zip(balls.blocks(), final.blocks()):
        # the oracles accept outputs within 1e-8 * max(1, rho) of the radius
        if not membership(ball, MomentPair.zero_mean(block), MEMBERSHIP_TOL * max(1.0, ball.radius)):
            raise RuntimeError("reference solve left a ball")
    objective = lqg_value(sys, final).cost
    gap = trace.records[-1].fw_gap
    return {"objective": objective, "tol": _tol(objective, REF_GAP), "ref_gap": gap,
            "ref_iters": len(trace.records)}


def _fd_grad(ss, Sw, Sv, step=1e-5):
    """Central differences of stationary_cost in both symmetric blocks."""
    grads = []
    for which, base in (("w", Sw), ("v", Sv)):
        d = base.shape[0]
        h = step * (1.0 + np.linalg.norm(base, "fro"))
        G = np.zeros((d, d))
        for i in range(d):
            for j in range(i, d):
                E = np.zeros((d, d))
                E[i, j] = E[j, i] = 1.0
                if which == "w":
                    diff = stationary_cost(ss, Sw + h * E, Sv)[0] - stationary_cost(ss, Sw - h * E, Sv)[0]
                else:
                    diff = stationary_cost(ss, Sw, Sv + h * E)[0] - stationary_cost(ss, Sw, Sv - h * E)[0]
                diff /= 2.0 * h
                G[i, j] = G[j, i] = diff if i == j else diff / 2.0
        grads.append(G)
    return grads


def _golden_max(f, lo=0.0, hi=1.0, iters=60):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    best = max((f(lo), lo), (f(hi), hi), (fc, c), (fd, d))
    return best[1]


def stationary_ref(ss, bw, bv, max_iters=500) -> dict:
    Sw, Sv = bw.nominal.cov, bv.nominal.cov
    floor_v = float(np.linalg.eigvalsh(Sv).min())
    for k in range(max_iters):
        Gw, Gv = _fd_grad(ss, Sw, Sv)
        tw = solve_oracle(bw, Gw, Sw, 0.0).sigma_star
        tv = solve_oracle(bv, Gv, Sv, floor_v).sigma_star
        gap = float(np.sum(Gw * (tw - Sw)) + np.sum(Gv * (tv - Sv)))
        if gap <= STATIONARY_REF_GAP:
            break

        def along(a):
            return stationary_cost(ss, (1 - a) * Sw + a * tw, (1 - a) * Sv + a * tv)[0]

        a = _golden_max(along)
        Sw = symmetrize((1 - a) * Sw + a * tw)
        Sv = symmetrize((1 - a) * Sv + a * tv)
    else:
        raise RuntimeError("stationary reference did not converge")
    for ball, S in ((bw, Sw), (bv, Sv)):
        if not membership(ball, MomentPair.zero_mean(S), MEMBERSHIP_TOL):
            raise RuntimeError("stationary reference left a ball")
    objective = stationary_cost(ss, Sw, Sv)[0]
    return {"objective": objective, "tol": _tol(objective, STATIONARY_REF_GAP),
            "ref_gap": gap, "ref_iters": k + 1}


def reference(spec, op) -> dict:
    """Tight reference for one operation."""
    inp = op.inputs
    if spec.family == "stationary":
        return stationary_ref(inp["ss"], inp["bw"], inp["bv"])
    entry = finite_horizon_ref(inp["sys"], inp["balls"])
    if spec.family == "gaps":
        entry["nominal_opt"] = lqg_value(inp["sys"], inp["nominal"]).cost
    return entry


def regenerate(family: str) -> None:
    entries = {}
    for spec in (SPECS[family], SMOKE_SPECS[family]):
        for op in build_ops(spec, range(spec.pool), OUT_DIR):
            t0 = time.perf_counter()
            entry = {"key": op.key, **reference(spec, op)}
            entries[op.fingerprint] = entry
            print(f"{op.key}: {entry['objective']!r} ({entry['ref_iters']} iters, "
                  f"{time.perf_counter() - t0:.1f} s)", flush=True)
    path = refs_path(SPECS[family])
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": 1, "generator": "bench/make_refs.py", "entries": entries}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(SPECS))
    args = ap.parse_args()
    for family in args.workload or sorted(SPECS):
        regenerate(family)


if __name__ == "__main__":
    main()
