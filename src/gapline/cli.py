"""Command-line front-end: generate fixtures, compute gaps and bounds,
sweep the adiabatic schedule, and run the cross-validation suite.

Exit codes: 0 success, 2 usage, parse or unreadable path, 3 precondition,
4 solver or numerical consistency failure, 5 bound/check violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import adiabatic, bounds, graphcore, spectral, verify
from .errors import ConsistencyError, PreconditionError, SizeGuardError, SolverError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4
EXIT_BOUND = 5


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename; never leaves partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gapline-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str | None) -> None:
    if output:
        _write_atomic(output, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load(path: str):
    with open(path) as fh:
        return graphcore.read_graph(fh.read())


def cmd_gen(args) -> int:
    if args.kind == "path":
        g = graphcore.build_path(args.l)
        text = graphcore.write_graph(g)
    else:
        g, w, labels = graphcore.build_caterpillar(args.l)
        text = graphcore.write_graph(g, w, labels)
    _emit(text, args.output)
    return EXIT_OK


def cmd_gap(args) -> int:
    g, w, _ = _load(args.file)
    spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
    _emit(
        json.dumps(
            {
                "E": spec.energy,
                "gap": spec.gap,
                "psi": list(spec.psi),
                "residual": spec.residual,
                "degenerate": spec.degenerate,
                "positive": spec.positive,
                "gap_err": spec.gap_err,
                # JSON has no infinity; psi_err is inf exactly when degenerate.
                "psi_err": None if spec.degenerate else spec.psi_err,
            }
        ),
        args.output,
    )
    return EXIT_OK


def _section(explicit: bool, compute) -> dict:
    """One `bounds` section.  A bound that refuses (a size guard or a failed
    precondition) fails the command when it was selected explicitly;
    otherwise it is reported as {"error": ...} and the other sections are
    still computed."""
    try:
        return compute()
    except (SizeGuardError, PreconditionError) as exc:
        if explicit:
            raise
        return {"error": str(exc)}


def cmd_bounds(args) -> int:
    g, w, _ = _load(args.file)
    run_all = not (args.conductance or args.poincare or args.single_peaked or args.cut)
    out: dict = {}
    spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
    out["gap"] = spec.gap

    def conductance():
        sandwich = bounds.gap_sandwich(g, w, spec)
        return {
            "phi": sandwich.conductance.phi,
            "lower": sandwich.lower,
            "upper": sandwich.upper,
            "subset": list(sandwich.conductance.minimizer.subset),
        }

    if args.conductance or run_all:
        out["conductance"] = _section(args.conductance, conductance)
    if args.poincare or run_all:
        out["poincare"] = _section(
            args.poincare, lambda: {"lower": bounds.poincare_bound(g, spec)}
        )
    if args.single_peaked or run_all:
        out["single_peaked"] = _section(
            args.single_peaked,
            lambda: {"lower": bounds.single_peaked_gap_bound(g, w, spec)},
        )
    if args.cut:
        subset = [int(v) for v in args.cut.split(",")]
        report = bounds.cut_profile(g, spec.psi, subset)
        out["cut"] = {
            "subset": list(report.subset),
            "flow": report.flow,
            "ratio": report.ratio,
            "upper": 2.0 * report.ratio,
        }
    _emit(json.dumps(out), args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    g, w, _ = _load(args.file)
    if args.grid is not None:
        grid = list(np.linspace(0.0, 1.0, args.grid))
    else:
        grid = adiabatic.default_sweep_grid()
    samples = adiabatic.gap_sweep(g, w, grid)
    lines = ["s,gamma,bound,regime,single_peaked"]
    for sm in samples:
        peaked = sm.gamma_bound is not None
        bound = _fmt(sm.gamma_bound) if peaked else "na"
        lines.append(f"{_fmt(sm.s)},{_fmt(sm.gamma_exact)},{bound},{sm.regime},{peaked}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    rows = verify.run_verification(lmax=args.lmax, seed=args.seed)
    widths = (26, 18, 34, 34)
    header = ("check", "instance", "expected", "actual")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "  pass")
    failures = []
    for r in rows:
        line = "  ".join(
            v.ljust(w)[:w] for v, w in zip((r.check, r.instance, r.expected, r.actual), widths)
        )
        print(f"{line}  {'ok' if r.passed else 'FAIL'}")
        if not r.passed:
            failures.append(r)
    print(f"{len(rows) - len(failures)}/{len(rows)} checks passed")
    if failures:
        for r in failures:
            print(f"FAILED: {r.check} {r.instance}: expected {r.expected}, got {r.actual}")
        return EXIT_BOUND
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `gapline` argument parser, built once per process; parse_args
    fills a fresh namespace from its defaults on every call."""
    parser = argparse.ArgumentParser(
        prog="gapline",
        description="Spectral gap bounds for graph Hamiltonians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph fixture")
    p.add_argument("kind", choices=["path", "caterpillar"])
    p.add_argument("--l", type=int, required=True, help="size parameter")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("gap", help="ground energy, gap, and ground state")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("bounds", help="conductance, Poincare, and single-peaked bounds")
    p.add_argument("file")
    p.add_argument("--conductance", action="store_true")
    p.add_argument("--poincare", action="store_true")
    p.add_argument("--single-peaked", dest="single_peaked", action="store_true")
    p.add_argument("--cut", help="comma-separated vertex subset for cut_profile")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", help="gap sweep along the adiabatic schedule")
    p.add_argument("file")
    p.add_argument("--grid", type=int, default=None, help="uniform grid size on [0,1]")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--lmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SolverError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
