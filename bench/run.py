"""Time-to-gap benchmark for robustlqg.

    python3 bench/run.py --workload paper --seed 0 --seconds 25 --trace 0

Runs one workload (paper, hard, stationary, gaps; see workloads.py) from the
checkout's own src/, single-threaded, and prints each metric by name with
its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, in calibrated times (see Clock); with --trace 1
they are the per-layer ones, taken from passes whose calls into the library
are wrapped and timed (tracer.py).

A run repeats the workload's fixed set of operations ("a pass") for about
--seconds, at least once, and gates every operation's result against the
stored references right after it, outside the timed region. Details
(per-operation times, run metadata, calibration samples) go to bench/out/.
--smoke runs the same code on tiny instances.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process
# or its children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 7
CAL_REPS = 60  # kernel rounds per calibration sample, about 4 ms
CAL_REF_S = 0.004
CAL_PERIOD_S = 0.25
CAL_WINDOW_S = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("fw_iters", "count"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better); the order is the order of the printed report.
PER_LAYER = (
    ("instances.generate_instance.calls", "count", "lower"),
    ("instances.generate_instance.s", "s", "lower"),
    ("divergences.membership.calls", "count", "lower"),
    ("divergences.membership.s", "s", "lower"),
    ("lqg.riccati_backward.calls", "count", "lower"),
    ("lqg.riccati_backward.s", "s", "lower"),
    ("lqg.kalman_forward.calls", "count", "lower"),
    ("lqg.kalman_forward.s", "s", "lower"),
    ("lqg.lqg_value.calls", "count", "lower"),
    ("lqg.lqg_value.self_s", "s", "lower"),
    ("gradient.lqg_gradient.calls", "count", "lower"),
    ("gradient.lqg_gradient.self_s", "s", "lower"),
    ("oracles.solve_oracle.calls", "count", "lower"),
    ("oracles.solve_oracle.s", "s", "lower"),
    ("oracles.wasserstein_oracle.s", "s", "lower"),
    ("oracles.kl_oracle.s", "s", "lower"),
    ("oracles.fisher_oracle.s", "s", "lower"),
    ("oracles.call_us.p50", "us", "lower"),
    ("oracles.call_us.tail", "us", "lower"),
    ("oracles.active_ratio", "ratio", "higher"),
    ("oracles.delta_achieved.min", "ratio", "higher"),
    ("frank_wolfe.solve.calls", "count", "lower"),
    ("frank_wolfe.iters", "count", "lower"),
    ("frank_wolfe.iter_s.p50", "s", "lower"),
    ("frank_wolfe.iter_s.tail", "s", "lower"),
    ("frank_wolfe.self_s", "s", "lower"),
    ("frank_wolfe.ls_trials", "count", "lower"),
    ("frank_wolfe.ls_accepts", "count", "higher"),
    ("frank_wolfe.subopt_over_tol.max", "ratio", "lower"),
    ("stationary.stationary_cost.calls", "count", "lower"),
    ("stationary.stationary_cost.self_s", "s", "lower"),
    ("stationary.solve_dare.calls", "count", "lower"),
    ("stationary.solve_dare.s", "s", "lower"),
    ("stationary.solve_filter_are.calls", "count", "lower"),
    ("stationary.solve_filter_are.s", "s", "lower"),
    ("matops.solve_discrete_lyapunov.calls", "count", "lower"),
    ("matops.solve_discrete_lyapunov.s", "s", "lower"),
    ("stacked.build_stacked.calls", "count", "lower"),
    ("stacked.build_stacked.s", "s", "lower"),
    ("stacked.kalman_policy_to_purified.calls", "count", "lower"),
    ("stacked.kalman_policy_to_purified.s", "s", "lower"),
    ("experiments.policy_worst_case_cost.calls", "count", "lower"),
    ("experiments.policy_worst_case_cost.self_s", "s", "lower"),
    ("experiments.policy_nominal_cost.s", "s", "lower"),
    ("experiments.write_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# FW driver spans: the finite-horizon loop and the stationary one.
FW_DRIVERS = ("frank_wolfe.solve", "stationary.solve_stationary_fw")
# Layers whose self times must add up to the FW solve time on paper and hard.
SOLVE_LAYERS = ("oracles", "gradient", "lqg", "divergences", "frank_wolfe")
ACCOUNTING_TOL = 1e-6


def import_library():
    """Import robustlqg from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import robustlqg
    except ImportError as exc:
        sys.exit(f"run.py: cannot import robustlqg from {SRC}: {exc}")
    if Path(robustlqg.__file__).resolve().parent != (SRC / "robustlqg").resolve():
        sys.exit(f"run.py: robustlqg imported from {robustlqg.__file__}, not from {SRC}")


def tail(samples):
    """(value, label) of the highest percentile with at least ten samples
    beyond it, i.e. the 11th largest sample; the maximum below 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n > 10:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:.4g}"
    return (xs[-1], "max") if xs else (0.0, "none")


def import_seconds() -> float:
    """Median over fresh interpreters of the time to import numpy and robustlqg."""
    code = ("import time; t = time.perf_counter(); import numpy, robustlqg; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


class Clock:
    """Scales operation times to a reference machine speed.

    A shared 2-vCPU x86_64 virtual machine runs in speed phases: the same
    solve can take 1.4x longer in one stretch of seconds or minutes than in
    another. While the untraced measurement runs, a timer signal
    every CAL_PERIOD_S runs a fixed numpy kernel that uses no library code
    (eigh, solve, cholesky and a product on 10x10 matrices) and logs its
    time. An operation's time, minus the kernel runs inside it, is scaled by
    the mean kernel speed within CAL_WINDOW_S of the operation, relative to
    a kernel time of CAL_REF_S (about its steady-state time on that machine).
    Raw times are kept in the detail file.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((10, 10))
        self._S = M @ M.T + np.eye(10)
        self._B = rng.standard_normal((10, 10))
        self.log = []  # (start, seconds) of each kernel run
        self._active = False

    def _kernel(self, signum=None, frame=None):
        S, B = self._S, self._B
        t0 = time.perf_counter()
        for _ in range(CAL_REPS):
            np.linalg.eigh(S)
            np.linalg.solve(S, B)
            np.linalg.cholesky(S)
            (S @ B).sum()
        self.log.append((t0, time.perf_counter() - t0))

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        self._active = True
        try:
            yield
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        if not self._active:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def speed(self, t0, t1) -> float:
        """Reference-speed seconds per measured second around [t0, t1]; 1
        when nothing was sampled (traced runs, and runs shorter than one
        period)."""
        near = [k for t, k in self.log if t0 - CAL_WINDOW_S <= t <= t1 + CAL_WINDOW_S]
        near = near or [k for _, k in self.log[-4:]]
        return CAL_REF_S * statistics.fmean(1.0 / k for k in near) if near else 1.0

    def seconds(self, t0, t1) -> float:
        """Time of [t0, t1] at reference speed, without the kernel runs in it.
        Call once the log covers CAL_WINDOW_S past t1."""
        inside = sum(k for t, k in self.log if t0 <= t < t1)
        return (t1 - t0 - inside) * self.speed(t0, t1)


def setup(wl, workload, spec, seeds, tracer, clock):
    """Build instances and balls, load and match references, and run one tiny
    warm-up solve, SETUP_REPEATS times; the last build is traced when tracing.
    Returns (setup_s, ops, refs), where setup_s() gives the calibrated
    times once the clock has sampled past the set-up."""
    spans = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        traced = tracer is not None and rep == SETUP_REPEATS - 1
        with (tracer.installed() if traced else nullcontext()):
            with (tracer.operation("setup") if traced else nullcontext()):
                ops = wl.build_ops(spec, seeds, OUT / workload)
                refs = wl.load_refs(spec, ops)
        smoke = wl.SMOKE_SPECS[workload]
        wl.build_ops(smoke, [0], OUT / "warmup")[0].run()
        spans.append((t0, time.perf_counter()))
    with clock.paused():  # no kernel runs next to the child interpreters
        t0 = time.perf_counter()
        import_s = import_seconds()
        t1 = time.perf_counter()

    def setup_s():
        """(setup seconds, its import part, its build part)"""
        imports = import_s * clock.speed(t0, t1)
        builds = statistics.median(clock.seconds(a, b) for a, b in spans)
        return imports + builds, imports, builds

    return setup_s, ops, refs


@dataclass
class Samples:
    """spans[i] and outcomes[i]: (start, end) and gate outcome of each
    untraced run of operation i; traced: [(pass seconds, [outcome of each
    operation])] of the traced passes, whose times are raw."""

    spans: list
    outcomes: list
    traced: list = field(default_factory=list)

    @classmethod
    def empty(cls, n):
        return cls([[] for _ in range(n)], [[] for _ in range(n)])

    def add(self, i, span, outcome):
        self.spans[i].append(span)
        self.outcomes[i].append(outcome)

    def gated(self):
        """(operation index, outcome) of every run, untraced and traced."""
        return [(i, o) for i, outs in enumerate(self.outcomes) for o in outs] + [
            (i, o) for _, outs in self.traced for i, o in enumerate(outs)]

    def raw(self):
        return [[b - a for a, b in spans] for spans in self.spans]


def run_op(wl, op, ref, tracer=None, tag=None):
    """Time one operation, then gate its result outside the timed region.
    Returns ((start, end), outcome)."""
    t0 = time.perf_counter()
    try:
        with (tracer.operation(tag) if tracer else nullcontext()):
            result = op.run()
    except Exception as exc:  # a failed operation is counted; the run goes on
        return (t0, time.perf_counter()), wl.Outcome(failures=[f"raised {exc!r}"])
    span = (t0, time.perf_counter())
    try:
        return span, op.check(result, ref)
    except Exception as exc:  # a gate that cannot evaluate a result fails it
        return span, wl.Outcome(failures=[f"gate raised {exc!r}"])


def measure(wl, ops, refs, seconds) -> Samples:
    """Run the operations round-robin, untraced. After the first full pass,
    stop at the first operation whose median time no longer fits in the
    budget. Each full pass also gets the cross-operation checks."""
    n = len(ops)
    samples = Samples.empty(n)
    start = time.perf_counter()
    for k in itertools.count():
        i = k % n
        if k >= n:
            median = statistics.median(b - a for a, b in samples.spans[i])
            if time.perf_counter() - start + median > seconds:
                return samples
        span, outcome = run_op(wl, ops[i], refs[i])
        samples.add(i, span, outcome)
        if i == n - 1:
            wl.check_series(ops, [outs[-1] for outs in samples.outcomes])


def measure_traced(wl, ops, refs, seconds, tracer) -> Samples:
    """Alternate an untraced and a traced pass while another pair fits in
    the budget; at least one of each."""
    samples = Samples.empty(len(ops))
    start = time.perf_counter()
    while True:
        outcomes = []
        for i, (op, ref) in enumerate(zip(ops, refs)):
            span, outcome = run_op(wl, op, ref)
            samples.add(i, span, outcome)
            outcomes.append(outcome)
        wl.check_series(ops, outcomes)
        secs, outcomes = 0.0, []
        with tracer.installed():
            for op, ref in zip(ops, refs):
                (a, b), outcome = run_op(wl, op, ref, tracer, f"{len(samples.traced)}:{op.key}")
                secs += b - a
                outcomes.append(outcome)
        wl.check_series(ops, outcomes)
        samples.traced.append((secs, outcomes))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(samples.traced)) > seconds:
            return samples


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "robustlqg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, seeds, n_ops, samples, clock):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    kernel = [k for _, k in clock.log]
    return {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "instance_seeds": seeds, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "ops_per_pass": n_ops, "untraced_samples": sum(len(s) for s in samples.spans),
        "traced_passes": len(samples.traced),
        "raw_wall_s": sum(statistics.median(r) for r in samples.raw()),
        "calibration": {"samples": len(kernel), "ref_s": CAL_REF_S,
                        "median_s": statistics.median(kernel) if kernel else None},
    }


def per_op_times(ops, times, raw):
    out = {}
    for op, secs, raw_secs in zip(ops, times, raw):
        value, label = tail(secs)
        out[op.key] = {"median_s": statistics.median(secs), "tail_s": value, "tail": label,
                       "samples": len(secs), "raw_median_s": statistics.median(raw_secs)}
    return out


def end_to_end(setup_s, times, samples, attempted, failed):
    """wall_s is the time to run the set once: the sum over operations of
    each one's median calibrated time."""
    return {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(secs) for secs in times),
        "fw_iters": sum(statistics.median(o.iters for o in outs) for outs in samples.outcomes),
        "pass_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tr, tracer, samples):
    """Per-layer metrics: the traced set-up plus one traced pass (traced
    passes are averaged). Uncalled functions report 0."""
    spans = tracer.spans
    n = len(samples.traced)
    setup_rows = tr.summarize(spans, lambda op: op == "setup")
    pass_rows = tr.summarize(spans, lambda op: op != "setup")

    def total(name, field):
        return setup_rows[name][field] + pass_rows[name][field] / n

    m = {}
    for name in tr.all_span_names():
        for field in ("calls", "s", "self_s"):
            m[f"{name}.{field}"] = total(name, field)

    oracle = [s for s in spans if s[0] == tr.ORACLE_NAME and s[4] != "setup"]
    durations_us = [(s[2] - s[1]) * 1e6 for s in oracle]
    m["oracles.call_us.p50"] = statistics.median(durations_us) if durations_us else 0.0
    m["oracles.call_us.tail"] = tail(durations_us)[0]
    m["oracles.active_ratio"] = (sum(s[5][0] for s in oracle) / len(oracle)) if oracle else 0.0
    m["oracles.delta_achieved.min"] = min((s[5][1] for s in oracle), default=0.0)

    outcomes = [o for _, outs in samples.traced for o in outs]
    iter_s = [ms / 1e3 for o in outcomes for ms in o.iter_ms]
    driver_ids = {i for i, s in enumerate(spans) if s[0] in FW_DRIVERS}
    m["frank_wolfe.solve.calls"] = sum(total(d, "calls") for d in FW_DRIVERS)
    m["frank_wolfe.iters"] = sum(o.iters for o in outcomes) / n
    m["frank_wolfe.iter_s.p50"] = statistics.median(iter_s) if iter_s else 0.0
    m["frank_wolfe.iter_s.tail"] = tail(iter_s)[0]
    m["frank_wolfe.self_s"] = sum(total(d, "self_s") for d in FW_DRIVERS)
    m["frank_wolfe.ls_trials"] = sum(
        1 for s in spans if s[0] == "lqg.lqg_value" and s[3] in driver_ids) / n
    m["frank_wolfe.ls_accepts"] = sum(o.accepts for o in outcomes) / n
    m["frank_wolfe.subopt_over_tol.max"] = max(
        (o.subopt_over_tol for o in outcomes if o.subopt_over_tol is not None), default=0.0)
    m["experiments.write_s"] = total("experiments.atomic_write_text", "s")
    untraced = [sum(run) for run in zip(*samples.raw())]
    m["trace.overhead_ratio"] = (statistics.median(s for s, _ in samples.traced)
                                 / statistics.median(untraced))

    solve_s = sum(s[2] - s[1] for s in spans if s[0] == "frank_wolfe.solve")
    layer_self = sum(row["self_s"] for name, row in pass_rows.items()
                     if name.split(".")[0] in SOLVE_LAYERS)
    accounting = {"solve_s": solve_s, "layer_self_s": layer_self,
                  "residual": abs(layer_self - solve_s) / solve_s if solve_s else 0.0}
    return {name: m[name] for name, _, _ in PER_LAYER}, accounting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="robustlqg time-to-gap benchmark")
    ap.add_argument("--workload", required=True, choices=("paper", "hard", "stationary", "gaps"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances, for self-tests")
    args = ap.parse_args(argv)

    import_library()
    import tracer as tr
    import workloads as wl

    specs = wl.SMOKE_SPECS if args.smoke else wl.SPECS
    spec = specs[args.workload]
    seeds = spec.instance_seeds(args.seed)
    tracer = tr.Tracer() if args.trace else None
    clock = Clock()
    # kernel runs inside traced spans would skew the layer times
    with (clock.sampling() if tracer is None else nullcontext()):
        try:
            setup_s, ops, refs = setup(wl, args.workload, spec, seeds, tracer, clock)
        except wl.RefError as exc:
            sys.exit(f"run.py: {exc}")
        if tracer is None:
            samples = measure(wl, ops, refs, args.seconds)
        else:
            samples = measure_traced(wl, ops, refs, args.seconds, tracer)
    times = [[clock.seconds(a, b) for a, b in spans] for spans in samples.spans]
    gated = samples.gated()
    attempted = len(gated)
    failed = sum(1 for _, o in gated if o.failures)
    correct = failed == 0
    failures = sorted({f"{ops[i].key}: {f}" for i, o in gated for f in o.failures})
    detail = {"meta": metadata(args, seeds, len(ops), samples, clock),
              "per_op": per_op_times(ops, times, samples.raw()),
              "max_ball_excess": max(o.excess for _, o in gated),
              "failures": failures, "kernel_samples": clock.log, "op_spans": samples.spans}
    if tracer is not None:
        metrics, accounting = per_layer(tr, tracer, samples)
        detail["accounting"] = accounting
        if args.workload in ("paper", "hard") and accounting["residual"] > ACCOUNTING_TOL:
            correct = False
            failures.append(f"layer self times do not add up: {accounting}")
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    else:
        total, imports, builds = setup_s()
        detail["meta"]["setup"] = {"import_s": imports, "build_s": builds}
        metrics = end_to_end(total, times, samples, attempted, failed)
        units = dict(END_TO_END)

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"max_ball_excess = {detail['max_ball_excess']:.3g} (largest final-block divergence"
          f" minus radius; gated at {wl.MEMBERSHIP_TOL:g} on solves, recorded on gaps)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
