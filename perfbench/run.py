#!/usr/bin/env python3
"""gapline benchmark: closed-loop CLI jobs on generated fixtures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gapline is imported from its `src/`.  One
client runs jobs back to back in this process.  A job is a fixed list of
`gapline.cli.main(argv)` calls on fixture files written from `--seed`.
Jobs run in whole rounds; the run stops at the round boundary nearest to
`--seconds` of summed job wall time.  Every job's output is checked against
a reference computed here.

`--trace 0` prints the end-to-end metrics.  `--trace 1` first runs an
untraced pass in a child process for half the time, then replays the same
jobs here under the outside-in tracer.  It checks that every output is
byte-identical to the untraced one, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit codes: 0 result printed, 2 no
gapline sources in this checkout, 3 the checker's self-test failed, 4 the
untraced pass of a traced run failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

# One BLAS thread: the client and the library share one core, and dense
# eigensolves up to n = 200 gain little from a second thread.  This must be
# set before numpy is first imported, by the modules below.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 170


@dataclass
class JobRecord:
    index: int
    round: int
    label: str
    seconds: float
    passed: bool
    problems: list[str]
    defect: str | None      # the known ROADMAP defect behind a failure
    input_sha: str
    output_sha: str


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="summed job time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", help="write the full result record here "
                   "(default .bench_work/result-WORKLOAD-sSEED-tTRACE.json)")
    return p.parse_args(argv)


def _sha(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def execute(cli_main, job, index: int, workdir: Path):
    """Write the job's fixture, run its CLI calls back to back, read the outputs.

    Only the calls are timed.  Returns (seconds, [CallResult]).
    """
    fixture = workdir / f"in-{index}.json"
    outputs = [workdir / f"out-{index}-{k}" for k in range(2)]
    if job.doc is not None:
        fixture.write_text(json.dumps(job.doc))
    argvs = workloads.job_calls(job, str(fixture), [str(o) for o in outputs])
    captured = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(argv)
            except Exception:  # the job fails; the loop goes on
                traceback.print_exc()
                rc = None
        captured.append((argv, rc, out, err))
    seconds = time.perf_counter() - start
    calls = []
    for argv, rc, out, err in captured:
        path = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
        text = path.read_text() if path is not None and path.exists() else None
        calls.append(check.CallResult(rc, out.getvalue(), err.getvalue(), text))
    for path in (fixture, *outputs):
        path.unlink(missing_ok=True)
    return seconds, calls


def run_jobs(cli_main, workload, seed: int, workdir: Path, *,
             seconds: float | None = None, rounds: int | None = None, tracer=None):
    """Run whole rounds and stop at the round boundary nearest to `seconds`
    of summed job time, or run exactly `rounds` rounds.  The reference for
    each job is computed before the job."""
    workdir.mkdir(parents=True, exist_ok=True)
    records: list[JobRecord] = []
    busy, r = 0.0, 0
    while rounds is None or r < rounds:
        for job in workload.round_jobs(seed, r):
            ref = check.reference(job.kind, job.doc)
            if tracer is not None:
                tracer.job_id = len(records)
            secs, calls = execute(cli_main, job, len(records), workdir)
            busy += secs
            problems = check.check_job(job.kind, ref, calls)
            records.append(JobRecord(
                index=len(records), round=r, label=job.label, seconds=secs,
                passed=not problems, problems=problems,
                defect=(check.known_defect(job.kind, job.doc, calls, problems)
                        if problems else None),
                input_sha=_sha(job.kind, job.doc, job.verify_seed),
                output_sha=_sha([(c.rc, c.stdout, c.output) for c in calls]),
            ))
        r += 1
        if rounds is None and busy + busy / r / 2 >= seconds:
            break
    with contextlib.suppress(OSError):
        workdir.rmdir()
    return records, r


def defect_probe(cli_main, workload, seed: int, workdir: Path) -> list[dict]:
    """Run the workload's probe jobs untimed and report what the checker finds.

    Probe jobs reproduce a known defect.  They are not counted in attempted
    or failed and do not decide `correct`, so fixing the defect, or turning
    it into a refusal, changes only this report."""
    workdir.mkdir(parents=True, exist_ok=True)
    report = []
    for k, job in enumerate(workload.probe_jobs(seed)):
        ref = check.reference(job.kind, job.doc)
        _, calls = execute(cli_main, job, k, workdir)
        problems = check.check_job(job.kind, ref, calls)
        report.append({
            "label": job.label, "passed": not problems, "problems": problems,
            "defect": (check.known_defect(job.kind, job.doc, calls, problems)
                       if problems else None),
        })
    with contextlib.suppress(OSError):
        workdir.rmdir()
    return report


def summarize(records: list[JobRecord], tail_pct: float) -> dict:
    times = sorted(r.seconds for r in records)
    # The tail is the nearest-rank `tail_pct` percentile.
    i = max(math.ceil(tail_pct / 100 * len(times)) - 1, 0)
    passed = sum(r.passed for r in records)
    return {
        "attempted": len(records),
        "passed": passed,
        "failed": len(records) - passed,
        "busy_s": sum(times),
        "p50_s": statistics.median(times),
        "tail_s": times[i],
        "tail_pct": tail_pct,
        "tail_beyond": len(times) - i - 1,
        "repeat_share": 1.0 - len({r.input_sha for r in records}) / len(records),
    }


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing gapline.cli, SETUP_REPS times.

    The wait blocks instead of polling: `subprocess.run(timeout=...)` polls
    in steps of up to 50 ms, which would round every time up to that grid.
    A timer kills a child that takes longer than SETUP_TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import gapline.cli"], env=env,
                                stdout=subprocess.DEVNULL)
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
    return times


def blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = int(fn())
                break
    return found


def environment(args, workload) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    blas = {
        name: mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        for name, mod in (("numpy", numpy), ("scipy", scipy))
    }
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
    }


def timed_run(cli_main, args, workload, workdir: Path):
    """The end-to-end metrics, with tracing off."""
    setup = measure_setup()
    records, rounds = run_jobs(cli_main, workload, args.seed, workdir, seconds=args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    s = summarize(records, workload.tail_pct)
    metrics = {
        "job_p50_ms": (1e3 * s["p50_s"], "ms"),
        "job_tail_ms": (1e3 * s["tail_s"], "ms"),
        "jobs_per_s": (s["passed"] / s["busy_s"], "1/s"),
        "pass_ratio": (s["passed"] / s["attempted"], "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    print(f"jobs: attempted={s['attempted']} passed={s['passed']} failed={s['failed']} "
          f"rounds={rounds} busy={s['busy_s']:.3f} s repeat_share={s['repeat_share']:g}")
    notes = {
        "job_tail_ms": f"p{s['tail_pct']:g} of {s['attempted']} jobs, "
                       f"{s['tail_beyond']} beyond",
        "setup_s": f"median of {SETUP_REPS} imports",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:12s} {value:12.4f} {unit:5s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':12s} {s['failed'] / s['attempted']:12.4f} {'':5s} "
          f"{s['failed']}/{s['attempted']}; bounded as pass_ratio")
    probes = defect_probe(cli_main, workload, args.seed, workdir)
    if probes:
        bad = [p for p in probes if not p["passed"]]
        print(f"defect probe (untimed, not counted in attempted/failed): "
              f"{len(bad)}/{len(probes)} failed")
        for p in probes:
            cause = p["defect"] or "no known defect: investigate"
            outcome = f"{'; '.join(p['problems'][:2])} [{cause}]" if p["problems"] else "passed"
            print(f"  probe {p['label']}: {outcome}")
    return records, rounds, s, metrics, True, {"setup_runs_s": setup, "defect_probe": probes}


def untraced_pass(args, result_path: Path) -> dict:
    """Run the untraced half of a traced run in a fresh interpreter.

    Raises RuntimeError when it fails or leaves no readable result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / 2), "--trace", "0",
           "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"untraced pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(result_path.read_text())
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        raise RuntimeError(f"untraced pass failed: {exc}") from exc
    finally:
        result_path.unlink(missing_ok=True)


def traced_run(cli_main, args, workload, workdir: Path, tag: str):
    """The per-layer metrics: an untraced pass in a child, then the same
    jobs replayed here under the tracer."""
    untraced = untraced_pass(args, WORK / f"result-{tag}-untraced-{os.getpid()}.json")
    tr = tracing.Tracer()
    tr.install()
    try:
        records, rounds = run_jobs(cli_main, workload, args.seed, workdir,
                                   rounds=untraced["rounds"], tracer=tr)
    finally:
        tr.uninstall()
    tr.measure_peaks()
    s = summarize(records, workload.tail_pct)
    base = untraced["jobs"]
    mismatched = [r.index for r, b in zip(records, base) if r.output_sha != b["output_sha"]]
    identical = not mismatched and len(records) == len(base)
    totals = tr.totals()
    layer = tracing.layer_metrics(tr, totals, s["attempted"], s["busy_s"])
    base_p50 = statistics.median(b["seconds"] for b in base)
    layer["trace.overhead_pct"] = 100.0 * (s["p50_s"] / base_p50 - 1.0)
    metrics = {k: (layer[k], unit) for k, unit in tracing.LAYER_UNITS.items()}
    spans_path = WORK / f"spans-{tag}.npz"
    tr.save(spans_path)

    print(f"jobs: attempted={s['attempted']} passed={s['passed']} failed={s['failed']} "
          f"rounds={rounds} traced spans={len(tr.start)} -> {spans_path.name}")
    print(f"no-perturbation: {len(records) - len(mismatched)}/{len(base)} traced job "
          f"outputs byte-identical to the untraced pass")
    if mismatched:
        print(f"  outputs differ on jobs {mismatched[:10]}")
    print(f"trace overhead: traced p50 {1e3 * s['p50_s']:.3f} ms vs untraced "
          f"{1e3 * base_p50:.3f} ms ({layer['trace.overhead_pct']:+.2f}%)")
    print("largest self time (share of traced job time, self% / inclusive%):")
    for name, self_pct, incl_pct in tracing.top_self(totals, s["busy_s"]):
        print(f"  {name:44s} {self_pct:6.2f}% {incl_pct:6.2f}%")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:44s} {value:14.6g} {unit}")
    extra = {"untraced_p50_s": base_p50, "mismatched_jobs": mismatched,
             "count_errors": tr.count_errors, "spans_file": spans_path.name}
    return records, rounds, s, metrics, identical, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gapline" / "cli.py").is_file():
        print(f"perfbench: no gapline sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gapline
    import gapline.cli

    if Path(gapline.__file__).resolve().parent != (SRC / "gapline").resolve():
        print(f"perfbench: imported gapline from {gapline.__file__}, not {SRC}", file=sys.stderr)
        return 2
    errors = check.self_test()
    if errors:
        print("perfbench: checker self-test failed: " + "; ".join(errors), file=sys.stderr)
        return 3

    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = WORK / f"jobs-{tag}-{os.getpid()}"
    env = environment(args, workload)
    print(f"gapline benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    print("env " + json.dumps(env))
    if args.trace == 0:
        outcome = timed_run(gapline.cli.main, args, workload, workdir)
    else:
        try:
            outcome = traced_run(gapline.cli.main, args, workload, workdir, tag)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 4
    records, rounds, s, metrics, identical, extra = outcome

    for r in records:
        if not r.passed:
            cause = r.defect or "no known defect: investigate"
            print(f"FAILED job {r.index} ({r.label}): {'; '.join(r.problems[:2])} [{cause}]")
    # Every failure must be a known defect whose cause the job's output shows.
    correct = identical and all(r.passed or r.defect for r in records)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result_path = Path(args.result) if args.result else WORK / f"result-{tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({
        "env": env, "rounds": rounds, "summary": s, "correct": correct, "metrics": values,
        "jobs": [asdict(r) for r in records], **extra,
    }, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": s["attempted"], "failed": s["failed"],
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
