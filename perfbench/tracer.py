"""Outside-in tracer for the traced run.

`Tracer.install` replaces every public function of the gapline modules with
a wrapper at every module binding: `bounds.solve_ground_and_gap` is wrapped
separately from `spectral.solve_ground_and_gap`, because gapline code calls
through the binding of the module it lives in.  A span is named after the
function's defining module, whichever binding was called.  Each span records
its name, start, end, parent span and job id in flat arrays kept in memory;
`save` writes them when the run ends.  Work counts are read from arguments
and return values.  Timed runs never construct a Tracer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "graphcore", "spectral", "bounds", "adiabatic", "verify")


def _conductance(args, kwargs, ret):
    g = args[0] if args else kwargs["g"]
    return {"cuts": ret.cuts_examined, "cut_edges": ret.cuts_examined * len(g.edges)}


def _paths(args, kwargs, ret):
    return {
        "paths": len(ret.paths),
        "path_edges": sum(len(p) - 1 for p in ret.paths.values()),
    }


def _solve(args, kwargs, ret):
    h = args[0] if args else kwargs["h"]
    return {"solve_n": h.n}


def _sweep(args, kwargs, ret):
    return {"points": len(ret)}


COUNTERS = {
    "bounds.conductance_exact": _conductance,
    "bounds.default_canonical_paths": _paths,
    "spectral.solve_ground_and_gap": _solve,
    "adiabatic.gap_sweep": _sweep,
}

# Spans whose peak allocation is measured with tracemalloc.  Tracing every
# allocation would slow the calls the spans time, so the call with the most
# counted work is kept and re-run under tracemalloc after the traced pass.
PEAK_MEMORY = {"bounds.conductance_exact": "cut_edges"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.count_errors: dict[str, str] = {}
        self._largest: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname in MODULES:
            module = sys.modules[f"gapline.{modname}"]
            for attr, obj in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__.startswith("gapline.")
                ):
                    span = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                    setattr(module, attr, self._wrap(obj, span))
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, span: str):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        sid = self._ids[span]
        counter = COUNTERS.get(span)
        clock = time.perf_counter
        stack, names, starts, ends, parents, jobs = (
            self._stack, self.name, self.start, self.end, self.parent, self.job,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                self._count(span, fn, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, span, fn, counter, args, kwargs, result) -> None:
        try:
            found = counter(args, kwargs, result)
        except Exception as exc:  # an API change must not stop the traced run
            if span not in self.count_errors:
                self.count_errors[span] = f"{type(exc).__name__}: {exc}"
                print(f"trace: cannot count {span}: {exc!r}", file=sys.stderr)
            return
        for key, value in found.items():
            self.counts[f"{span}.{key}"] += value
        self.counts[f"{span}.counted"] += 1
        if span in PEAK_MEMORY:
            work = found[PEAK_MEMORY[span]]
            if work > self._largest.get(span, (0,))[0]:
                self._largest[span] = (work, fn, args, kwargs)

    def measure_peaks(self) -> None:
        """Re-run the largest call of each PEAK_MEMORY span under tracemalloc."""
        for span, (_, fn, args, kwargs) in self._largest.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.peak_bytes[span] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and inclusive seconds.

        Self time is a span's duration minus the durations of its direct
        children.  Inclusive time counts only spans whose parent has another
        name, so recursion is not counted twice.
        """
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        outer = np.ones(len(dur), dtype=bool)
        outer[has_parent] = s["name"][s["parent"][has_parent]] != s["name"][has_parent]
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        selfs = np.bincount(s["name"], weights=self_time, minlength=k)
        incl = np.bincount(s["name"][outer], weights=dur[outer], minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(selfs[i]), "incl_s": float(incl[i])}
            for i, name in enumerate(self.names)
        }


# Per-layer metric name -> unit.  Times and counts are per traced job.
LAYER_UNITS = {
    "cli.self_s": "s",
    "graphcore.read_graph.self_s": "s",
    "graphcore.is_single_peaked.self_s": "s",
    "spectral.solve_ground_and_gap.calls": "count",
    "spectral.solve_ground_and_gap.self_s": "s",
    "spectral.solve_ground_and_gap.ms_per_call": "ms",
    "spectral.solve_ground_and_gap.n_mean": "count",
    "spectral.laplacian.calls": "count",
    "spectral.laplacian.self_s": "s",
    "spectral.assemble.self_s": "s",
    "bounds.conductance_exact.self_s": "s",
    "bounds.conductance_exact.cuts": "count",
    "bounds.conductance_exact.ns_per_cut_edge": "ns",
    "bounds.conductance_exact.peak_mib": "MiB",
    "bounds.default_canonical_paths.self_s": "s",
    "bounds.default_canonical_paths.paths": "count",
    "bounds.default_canonical_paths.path_edges": "count",
    "bounds.poincare_bound.self_s": "s",
    "bounds.poincare_bound.ns_per_path_edge": "ns",
    "bounds.gap_sandwich.self_s": "s",
    "bounds.single_peaked_gap_bound.self_s": "s",
    "bounds.build_walk_matrix.self_s": "s",
    "adiabatic.gap_sweep.self_s": "s",
    "adiabatic.gap_sweep.points": "count",
    "adiabatic.interpolated_hamiltonian.self_s": "s",
    "adiabatic.switching_schedule.self_s": "s",
    "adiabatic.switching_schedule.calls": "count",
    "verify.check_sandwich.s": "s",
    "verify.check_walk_contracts.s": "s",
    "verify.check_switching.s": "s",
    "verify.check_caterpillar_gap.s": "s",
    "verify.generators.self_s": "s",
    "trace.job_s": "s",
    "trace.top_self_pct": "%",
    "trace.spans_per_job": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer, t: dict, jobs: int, job_seconds: float) -> dict[str, float]:
    """Per-layer metrics from the span totals `t` of `jobs` traced jobs that
    took `job_seconds` in total.  `trace.overhead_pct` is left to the caller."""
    c = tracer.counts

    def get(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def self_of(prefix: str) -> float:
        return sum(v["self_s"] for k, v in t.items() if k.startswith(prefix))

    solve, cond, paths, poin = (
        "spectral.solve_ground_and_gap", "bounds.conductance_exact",
        "bounds.default_canonical_paths", "bounds.poincare_bound",
    )
    per_job = {
        "cli.self_s": self_of("cli."),
        "graphcore.read_graph.self_s": get("graphcore.read_graph", "self_s"),
        # Inclusive: its only children are its graphcore helpers (local_maxima).
        "graphcore.is_single_peaked.self_s": get("graphcore.is_single_peaked", "incl_s"),
        f"{solve}.calls": get(solve, "calls"),
        f"{solve}.self_s": get(solve, "self_s"),
        "spectral.laplacian.calls": get("spectral.laplacian", "calls"),
        "spectral.laplacian.self_s": get("spectral.laplacian", "self_s"),
        "spectral.assemble.self_s": get("spectral.assemble", "self_s"),
        f"{cond}.self_s": get(cond, "self_s"),
        f"{cond}.cuts": c[f"{cond}.cuts"],
        f"{paths}.self_s": get(paths, "self_s"),
        f"{paths}.paths": c[f"{paths}.paths"],
        f"{paths}.path_edges": c[f"{paths}.path_edges"],
        f"{poin}.self_s": get(poin, "self_s"),
        "bounds.gap_sandwich.self_s": get("bounds.gap_sandwich", "self_s"),
        "bounds.single_peaked_gap_bound.self_s": get("bounds.single_peaked_gap_bound", "self_s"),
        "bounds.build_walk_matrix.self_s": get("bounds.build_walk_matrix", "self_s"),
        "adiabatic.gap_sweep.self_s": get("adiabatic.gap_sweep", "self_s"),
        "adiabatic.gap_sweep.points": c["adiabatic.gap_sweep.points"],
        "adiabatic.interpolated_hamiltonian.self_s":
            get("adiabatic.interpolated_hamiltonian", "self_s"),
        "adiabatic.switching_schedule.self_s": get("adiabatic.switching_schedule", "self_s"),
        "adiabatic.switching_schedule.calls": get("adiabatic.switching_schedule", "calls"),
        "verify.check_sandwich.s": get("verify.check_sandwich", "incl_s"),
        "verify.check_walk_contracts.s": get("verify.check_walk_contracts", "incl_s"),
        "verify.check_switching.s": get("verify.check_switching", "incl_s"),
        "verify.check_caterpillar_gap.s": get("verify.check_caterpillar_gap", "incl_s"),
        "verify.generators.self_s": self_of("verify.random_"),
        "trace.job_s": job_seconds,
        "trace.spans_per_job": float(len(tracer.start)),
    }
    out = {k: v / jobs for k, v in per_job.items()}
    out[f"{solve}.ms_per_call"] = 1e3 * ratio(get(solve, "self_s"), get(solve, "calls"))
    out[f"{solve}.n_mean"] = ratio(c[f"{solve}.solve_n"], c[f"{solve}.counted"])
    out[f"{cond}.ns_per_cut_edge"] = 1e9 * ratio(get(cond, "self_s"), c[f"{cond}.cut_edges"])
    out[f"{cond}.peak_mib"] = tracer.peak_bytes[cond] / 2**20
    out[f"{poin}.ns_per_path_edge"] = 1e9 * ratio(get(poin, "self_s"), c[f"{paths}.path_edges"])
    top = max((v["self_s"] for v in t.values()), default=0.0)
    out["trace.top_self_pct"] = 100.0 * ratio(top, job_seconds)
    return out


def top_self(t: dict, job_seconds: float, k: int = 8) -> list[tuple[str, float, float]]:
    """The k functions with the most self time in the span totals `t`:
    (name, self share %, inclusive share %)."""
    ranked = sorted(t.items(), key=lambda kv: kv[1]["self_s"], reverse=True)[:k]
    return [(n, 100 * v["self_s"] / job_seconds, 100 * v["incl_s"] / job_seconds)
            for n, v in ranked]
