"""Output checker.

Every job's output is compared against a reference computed here with
`numpy.linalg.eigvalsh` on a Hamiltonian built from the fixture document,
without calling gapline.  A job fails on a nonzero exit, a non-finite
number, a gap or energy outside tolerance, or a bound that is not positive
or lies on the wrong side of the reference gap.  Each check appends what it
finds wrong to a list of problems; a job passes when the list stays empty.
`known_defect` names the open ROADMAP defect behind a failure when the
job's own output shows that defect's cause.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Eigenvalue tolerance, relative to max(1, spectral radius of H).
EIG_RTOL = 1e-9
# Grid tolerance on the sweep's s values.
S_TOL = 1e-12


def hamiltonian(doc: dict, s: float | None = None) -> np.ndarray:
    """L_G + diag(W), or (1-s) L_G + s diag(W) when s is given."""
    n = doc["n"]
    e = np.asarray(doc["edges"], dtype=np.intp).reshape(-1, 2)
    lap = np.zeros((n, n))
    lap[e[:, 0], e[:, 1]] = -1.0
    lap[e[:, 1], e[:, 0]] = -1.0
    lap[np.diag_indices(n)] = np.bincount(e.ravel(), minlength=n)
    w = np.diag(np.asarray(doc["potential"], dtype=float))
    if s is None:
        return lap + w
    return (1.0 - s) * lap + s * w


def sweep_grid() -> list[float]:
    """The documented default grid of `gapline sweep`: 101 uniform points on
    [0, 0.99], 16 geometric points toward 1, and 1 itself."""
    grid = [float(s) for s in np.linspace(0.0, 0.99, 101)]
    grid += [1.0 - 0.01 * 0.5**k for k in range(1, 17)]
    return grid + [1.0]


@dataclass
class Reference:
    energy: float
    gap: float
    tol: float                      # absolute eigenvalue tolerance
    h: np.ndarray
    sweep: list[tuple[float, float, float]] | None = None   # (s, gap, tol)


def _lowest_two(h: np.ndarray) -> tuple[float, float, float]:
    vals = np.linalg.eigvalsh(h)
    scale = max(1.0, float(np.abs(vals).max()))
    return float(vals[0]), float(vals[1] - vals[0]), EIG_RTOL * scale


def reference(kind: str, doc: dict | None) -> Reference | None:
    if doc is None:
        return None
    h = hamiltonian(doc)
    energy, gap, tol = _lowest_two(h)
    ref = Reference(energy, gap, tol, h)
    if kind == "sweep":
        ref.sweep = []
        for s in sweep_grid():
            _, g, t = _lowest_two(hamiltonian(doc, s))
            ref.sweep.append((s, g, t))
    return ref


def _number(v: list[str], where: str, x) -> float | None:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        v.append(f"{where} is not a number: {x!r}")
        return None
    if not math.isfinite(x):
        v.append(f"{where} is {x}")
        return None
    return float(x)


def _parse_json(v: list[str], where: str, text: str | None) -> dict | None:
    try:
        doc = json.loads(text)
    except (TypeError, ValueError):
        v.append(f"{where}: output is not JSON")
        return None
    if not isinstance(doc, dict):
        v.append(f"{where}: output is not a JSON object")
        return None
    return doc


def _check_gap(v: list[str], where: str, got, ref_gap: float, tol: float) -> None:
    x = _number(v, where, got)
    if x is not None and abs(x - ref_gap) > tol:
        v.append(f"{where} {x!r} differs from reference {ref_gap!r} by more than {tol:.1e}")


def _bound(v: list[str], where: str, got) -> float | None:
    """Every bound gapline reports is positive by construction."""
    x = _number(v, where, got)
    if x is not None and x <= 0:
        v.append(f"{where} {x!r} is not positive")
        return None
    return x


def _check_lower(v: list[str], where: str, got, gap: float, tol: float) -> None:
    x = _bound(v, where, got)
    if x is not None and x > gap + tol:
        v.append(f"{where} {x!r} lies above the reference gap {gap!r}")


def _check_upper(v: list[str], where: str, got, gap: float, tol: float) -> None:
    x = _bound(v, where, got)
    if x is not None and x < gap - tol:
        v.append(f"{where} {x!r} lies below the reference gap {gap!r}")


def check_gap_output(v: list[str], text: str | None, ref: Reference) -> None:
    """`gapline gap`: energy and gap match; psi is a unit ground vector."""
    doc = _parse_json(v, "gap", text)
    if doc is None:
        return
    _check_gap(v, "gap.E", doc.get("E"), ref.energy, ref.tol)
    _check_gap(v, "gap.gap", doc.get("gap"), ref.gap, ref.tol)
    _number(v, "gap.residual", doc.get("residual"))
    psi = doc.get("psi")
    if not isinstance(psi, list) or len(psi) != ref.h.shape[0]:
        v.append("gap.psi has the wrong length")
        return
    psi = np.asarray(psi, dtype=float)
    if not np.all(np.isfinite(psi)):
        v.append("gap.psi has non-finite entries")
        return
    if abs(float(psi @ psi) - 1.0) > 1e-8:
        v.append("gap.psi is not unit length")
    elif np.linalg.norm(ref.h @ psi - ref.energy * psi) > 10 * ref.tol:
        v.append("gap.psi is not a ground vector of H")


def check_bounds_output(v: list[str], text: str | None, ref: Reference, sections) -> None:
    """`gapline bounds`: gap matches; each requested bound on its side."""
    doc = _parse_json(v, "bounds", text)
    if doc is None:
        return
    _check_gap(v, "bounds.gap", doc.get("gap"), ref.gap, ref.tol)
    for name in sections:
        sec = doc.get(name)
        if not isinstance(sec, dict):
            v.append(f"bounds.{name} is missing")
        elif name == "conductance":
            _number(v, "bounds.conductance.phi", sec.get("phi"))
            _check_lower(v, "bounds.conductance.lower", sec.get("lower"), ref.gap, ref.tol)
            _check_upper(v, "bounds.conductance.upper", sec.get("upper"), ref.gap, ref.tol)
        elif name == "single_peaked" and "error" in sec:
            pass  # precondition refused: a documented outcome, not a bound
        else:
            _check_lower(v, f"bounds.{name}.lower", sec.get("lower"), ref.gap, ref.tol)


def check_sweep_output(v: list[str], text: str | None, ref: Reference) -> None:
    """`gapline sweep`: the default grid, exact gaps, floors under the gaps."""
    lines = (text or "").strip().splitlines()
    if not lines or lines[0] != "s,gamma,bound,regime,single_peaked":
        v.append("sweep: missing CSV header")
        return
    rows = lines[1:]
    if len(rows) != len(ref.sweep):
        v.append(f"sweep: {len(rows)} rows, expected {len(ref.sweep)}")
        return
    for row, (s_ref, gap_ref, tol) in zip(rows, ref.sweep):
        cells = row.split(",")
        if (len(cells) != 5 or cells[3] not in ("bulk", "endgame")
                or cells[4] not in ("True", "False")):
            v.append(f"sweep: malformed row {row!r}")
            return
        try:
            s, gamma = float(cells[0]), float(cells[1])
            bound = None if cells[2] == "na" else float(cells[2])
        except ValueError:
            v.append(f"sweep: malformed row {row!r}")
            return
        where = f"sweep s={cells[0]}"
        if _number(v, f"{where} s", s) is not None and abs(s - s_ref) > S_TOL:
            v.append(f"{where}: expected grid point {s_ref!r}")
        _check_gap(v, f"{where} gamma", gamma, gap_ref, tol)
        if bound is not None:
            _check_lower(v, f"{where} floor", bound, gap_ref, tol)
        if len(v) > 5:
            return


def check_verify_output(v: list[str], rc: int | None, stdout: str) -> None:
    """`gapline verify`: exit 0 and every row passing."""
    lines = stdout.strip().splitlines()
    summary = lines[-1].split() if lines else []
    counts = summary[0].split("/") if summary else []
    if rc == 5 or any(line.rstrip().endswith("FAIL") for line in lines):
        v.append(f"verify reported failing rows (exit {rc})")
    elif rc != 0:
        v.append(f"verify exited {rc}")
    elif len(counts) != 2 or counts[0] != counts[1] or counts[1] in ("", "0"):
        v.append(f"verify summary {' '.join(summary)!r} is not all rows passing")


@dataclass
class CallResult:
    rc: int | None          # None: the call raised instead of returning
    stdout: str
    stderr: str
    output: str | None      # contents of the -o file, if the call wrote one


def check_job(kind: str, ref: Reference | None, calls: list[CallResult]) -> list[str]:
    """Everything wrong with one job's outputs; empty when the job passed."""
    v: list[str] = []
    for i, c in enumerate(calls):
        if kind != "verify" and c.rc != 0:
            first = c.stderr.strip().splitlines()[-1:] or ["no message"]
            v.append(f"call {i} exited {c.rc}: {first[0]}")
    if v:
        return v
    if kind == "bounds":
        check_bounds_output(v, calls[0].output, ref, ("conductance", "poincare", "single_peaked"))
    elif kind == "poincare":
        check_gap_output(v, calls[0].output, ref)
        check_bounds_output(v, calls[1].output, ref, ("poincare",))
    elif kind == "sweep":
        check_gap_output(v, calls[0].output, ref)
        check_sweep_output(v, calls[1].output, ref)
    elif kind == "verify":
        check_verify_output(v, calls[0].rc, calls[0].stdout)
    return v


# Below this product of two amplitudes, 1 / (psi_a psi_b) overflows float64.
OVERFLOW_PRODUCT = 1.0 / np.finfo(float).max


def known_defect(kind: str, doc: dict | None, calls: list[CallResult], problems) -> str | None:
    """The open ROADMAP defect behind a failed job, when the job's own output
    shows that defect's cause; None when the failure is unexplained."""
    if kind != "poincare" or not all(p.startswith("bounds.poincare.lower") for p in problems):
        return None
    try:
        psi = np.asarray(json.loads(calls[0].output)["psi"], dtype=float)
    except (TypeError, ValueError, KeyError):
        return None
    e = np.asarray(doc["edges"], dtype=np.intp).reshape(-1, 2)
    if np.any(psi <= 0) or np.any(psi[e[:, 0]] * psi[e[:, 1]] < OVERFLOW_PRODUCT):
        return ("ROADMAP open item 4: the ground state underflows, so poincare_bound "
                "returns nan or a value that is not a bound")
    return None


def self_test() -> list[str]:
    """Feed the checker outputs it must reject and outputs it must accept.
    No rejected case may be blamed on a known defect: its psi is healthy."""
    doc = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "potential": [0.3, -0.2, 0.1, 0.5]}
    ref = reference("poincare", doc)
    vals, vecs = np.linalg.eigh(ref.h)
    psi = vecs[:, 0] * np.sign(vecs[np.argmax(np.abs(vecs[:, 0])), 0])
    good_gap = json.dumps({"E": ref.energy, "gap": ref.gap, "psi": list(psi), "residual": 1e-16})
    nan_gap = json.dumps({"E": ref.energy, "gap": float("nan"), "psi": list(psi), "residual": 0.0})
    good_bound = json.dumps({"gap": ref.gap, "poincare": {"lower": ref.gap / 10}})
    high_bound = json.dumps({"gap": ref.gap, "poincare": {"lower": ref.gap * 2}})
    verify_fail = "check  instance  expected  actual  pass\nx  y  z  w  FAIL\n0/1 checks passed\n"
    cases = [
        ("a correct poincare job", "poincare", ref, [(0, "", good_gap), (0, "", good_bound)], True),
        ("a NaN gap", "poincare", ref, [(0, "", nan_gap), (0, "", good_bound)], False),
        ("a Poincare lower bound above the gap", "poincare", ref,
         [(0, "", good_gap), (0, "", high_bound)], False),
        ("a verify exit 5", "verify", None, [(5, verify_fail, None)], False),
        ("a verify exit 0 with all rows passing", "verify", None,
         [(0, "a  b  c  d  ok\n1/1 checks passed\n", None)], True),
    ]
    errors = []
    for name, kind, r, calls, should_pass in cases:
        results = [CallResult(rc, out, "", o) for rc, out, o in calls]
        problems = check_job(kind, r, results)
        if (not problems) != should_pass:
            errors.append(f"checker {'rejected' if should_pass else 'accepted'} {name}")
        elif problems and known_defect(kind, doc, results, problems):
            errors.append(f"checker blamed a known defect for {name}")
    return errors
