"""Call tracing from outside the library.

Wraps public robustlqg functions at the module bindings their callers look
up at call time, so every call records a span (name, start, end, parent
span, operation id). Spans stay in memory and are written out when the run
ends. Nothing inside the library is edited; wrappers are installed and
removed around each traced pass, and record nothing outside an operation.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module whose global binding is replaced, attribute names): the bindings
# library code calls through, plus frank_wolfe.solve,
# stationary.solve_stationary_fw and instances.generate_instance, which the
# benchmark itself calls.
BINDINGS = (
    ("robustlqg.frank_wolfe", ("solve", "lqg_gradient", "solve_oracle", "membership")),
    ("robustlqg.lqg", ("riccati_backward", "kalman_forward", "lqg_value")),
    ("robustlqg.gradient", ("riccati_backward", "kalman_forward")),
    ("robustlqg.oracles", ("wasserstein_oracle", "kl_oracle", "fisher_oracle")),
    ("robustlqg.stationary", (
        "solve_stationary_fw", "stationary_cost", "solve_dare", "solve_filter_are",
        "solve_discrete_lyapunov", "solve_oracle", "membership",
    )),
    ("robustlqg.stacked", ("riccati_backward", "kalman_forward", "build_stacked")),
    ("robustlqg.experiments", (
        "solve", "generate_instance", "build_stacked", "kalman_policy_to_purified",
        "policy_worst_case_cost", "policy_nominal_cost", "atomic_write_text", "solve_oracle",
    )),
    ("robustlqg.instances", ("generate_instance",)),
)

ORACLE_NAME = "oracles.solve_oracle"


def span_name(fn) -> str:
    """Layer-qualified name of the function object, whatever binding it has."""
    return f"{fn.__module__.removeprefix('robustlqg.')}.{fn.__name__}"


class Tracer:
    """Span recorder. A span is a tuple (name, start, end, parent, op, note);
    parent is the index of the enclosing span or -1, note holds the
    (active, delta_achieved) pair of an oracle result."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = None
        self._wrappers: dict = {}  # original function -> wrapper

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = span_name(fn)
        is_oracle = name == ORACLE_NAME
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._op, None)
            if is_oracle:
                spans[idx] = spans[idx][:5] + ((bool(out.active), float(out.subopt_delta_achieved)),)
            return out

        self._wrappers[fn] = wrapper
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every binding in BINDINGS by its wrapper; restore on exit."""
        saved = []
        try:
            for modname, attrs in BINDINGS:
                mod = importlib.import_module(modname)
                for attr in attrs:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextmanager
    def operation(self, op_id: str):
        """Record spans for calls made inside this block, under a root span
        named 'bench.op' carrying op_id."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = ("bench.op", t0, t1, -1, op_id, None)
            self._op = None

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, note) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "op": op,
                     "note": note}
                ) + "\n")


def all_span_names() -> list[str]:
    """Names of every wrapped function, so uncalled ones report 0 calls."""
    names = set()
    for modname, attrs in BINDINGS:
        mod = importlib.import_module(modname)
        for attr in attrs:
            names.add(span_name(getattr(mod, attr)))
    return sorted(names)


def summarize(spans, op_filter=None) -> dict:
    """Per-name calls, total seconds, self seconds and call durations.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested because everything runs on one
    thread. op_filter, if given, keeps spans whose op id it accepts.
    """
    child_time = defaultdict(float)
    for name, t0, t1, parent, op, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
    for i, (name, t0, t1, parent, op, _) in enumerate(spans):
        if op_filter is not None and not op_filter(op):
            continue
        row = out[name]
        row["calls"] += 1
        row["s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time[i]
        row["durations"].append(t1 - t0)
    return out
