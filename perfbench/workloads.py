"""Workload definitions: which CLI calls make up a job, and the fixtures
each job reads.

Every fixture is generated here from the run's seed, never by gapline
itself, so a change to the program cannot change its own inputs.  Jobs run
in rounds.  Every round has the same mix of job classes at the same fixed
sizes, and a run ends only at a round boundary, so the mix of a run does
not depend on where the clock ran out.  The seed draws the content of each
instance (edges, potentials, vertex labels): runs with different seeds read
different inputs with the same mix.

Every round runs its largest instances first.  Once a large array has been
freed, glibc malloc serves smaller ones from the heap instead of fresh mmap
pages, so a job's cost would otherwise depend on whether a larger job ran
before it in the process.

No instance repeats within a run.  Caterpillars and chains are fixed
shapes, so each job gets a copy under a fresh random vertex labelling.
The copy is isomorphic to the original: it has the same gap and bounds,
but it is a different input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# `gapline verify` size parameter used by every verify job.
VERIFY_LMAX = 10

# Share of the non-tree vertex pairs that random graphs add as edges.  A fixed
# edge count per n keeps the cost of one size class steady across seeds.
EXTRA_EDGE_SHARE = 0.3


@dataclass(frozen=True)
class Job:
    """One job: `kind` fixes the CLI calls, `doc` is the fixture it reads."""

    label: str
    kind: str                  # "bounds", "poincare", "sweep" or "verify"
    doc: dict | None = None    # {"n", "edges", "potential"}; None for verify
    verify_seed: int | None = None


def job_calls(job: Job, fixture: str, outputs: list[str]) -> list[list[str]]:
    """argv lists of the job's `gapline` calls; `outputs` are the -o targets."""
    if job.kind == "bounds":
        return [["bounds", fixture, "-o", outputs[0]]]
    if job.kind == "poincare":
        return [
            ["gap", fixture, "-o", outputs[0]],
            ["bounds", fixture, "--poincare", "-o", outputs[1]],
        ]
    if job.kind == "sweep":
        return [["gap", fixture, "-o", outputs[0]], ["sweep", fixture, "-o", outputs[1]]]
    if job.kind == "verify":
        return [["verify", "--lmax", str(VERIFY_LMAX), "--seed", str(job.verify_seed)]]
    raise ValueError(f"unknown job kind {job.kind!r}")


# ---------------------------------------------------------------- generators


def _doc(n: int, edges, potential) -> dict:
    edges = sorted((min(x, y), max(x, y)) for x, y in edges)
    return {
        "n": int(n),
        "edges": [[int(x), int(y)] for x, y in edges],
        "potential": [float(v) for v in potential],
    }


def relabel(rng: np.random.Generator, doc: dict) -> dict:
    """Isomorphic copy of `doc` under a uniformly random vertex permutation."""
    n = doc["n"]
    perm = rng.permutation(n)
    w = np.empty(n)
    w[perm] = doc["potential"]
    return _doc(n, [(perm[x], perm[y]) for x, y in doc["edges"]], w)


def random_graph(rng: np.random.Generator, n: int) -> dict:
    """Uniform-attachment spanning tree plus a fixed number of extra edges
    drawn uniformly from the remaining pairs; potential uniform in [-1, 1]."""
    tree = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    rest = [(x, y) for x in range(n) for y in range(x + 1, n) if (x, y) not in tree]
    extra = round(EXTRA_EDGE_SHARE * len(rest))
    picked = rng.choice(len(rest), size=extra, replace=False)
    edges = sorted(tree | {rest[i] for i in picked})
    return _doc(n, edges, rng.uniform(-1.0, 1.0, size=n))


def caterpillar(l: int) -> dict:
    """The paper's caterpillar on 6l-1 vertices with its single-basin potential.

    Spine 0..2l with the minimum B_l at index l; two legs hang from each
    interior spine vertex on either side and two from the centre.
    """
    spine_w = [0.0 if j == 0 else -0.5 - j / (4.0 * l) for j in range(l + 1)]

    def leg_w(j: int) -> float:
        if j == 1:
            return 1.0 / (11.0 / 12.0 - 1.0 / (8 * l)) - 1.0
        if j == l:
            return 7.0
        return 1.0 / (2.0 / 3.0 - j / (8.0 * l)) - 1.0

    w = [spine_w[p if p <= l else 2 * l - p] for p in range(2 * l + 1)]
    edges = [(p, p + 1) for p in range(2 * l)]
    hangs = [h for j in range(1, l) for h in ((j, j), (2 * l - j, j))] + [(l, l)]
    for spine_vertex, j in hangs:
        for _ in range(2):
            edges.append((spine_vertex, len(w)))
            w.append(leg_w(j))
    return _doc(len(w), edges, w)


def chain(l: int, potential) -> dict:
    return _doc(l, [(i, i + 1) for i in range(l - 1)], potential)


# Step ranges of valley potentials.  Deep valleys make the ground state
# decay below what a float64 eigensolver resolves (psi under 1e-16), which
# is ROADMAP open item 4.  Shallow valleys keep min psi above 1e-4 at l=120
# (measured over 3000 draws), so every Poincare bound is computable.
DEEP_STEPS = (0.05, 1.0)
SHALLOW_STEPS = (1e-5, 2e-4)


def valley_potential(rng: np.random.Generator, l: int, steps=DEEP_STEPS) -> np.ndarray:
    """Single-basin chain potential: strictly decreasing to a uniformly placed
    minimum, then strictly increasing, with steps uniform in `steps`."""
    m = int(rng.integers(0, l))
    w = np.zeros(l)
    for i in range(m - 1, -1, -1):
        w[i] = w[i + 1] + rng.uniform(*steps)
    for i in range(m + 1, l):
        w[i] = w[i - 1] + rng.uniform(*steps)
    return w


# ----------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict                                   # instance-size ranges, for the record
    round_jobs: Callable[[int, int], list[Job]]   # (seed, round) -> jobs
    # Percentile reported as `job_tail_ms`.  A fixed percentile of whole
    # rounds falls inside the same job class whatever the round count, and
    # each is chosen so that a 24 s run has at least 10 jobs beyond it.
    tail_pct: float
    # seed -> jobs that reproduce a known defect.  They run untimed after the
    # loop and are reported, but not counted in attempted or failed.
    probe_jobs: Callable[[int], list[Job]] = lambda seed: []


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# Graphs per round for each n.  Cut enumeration costs 2^(n-1) (n + m), so
# smaller graphs come more often.  With the caterpillars, the median job
# falls inside the n=19 class and the p72 tail inside the n=20 class (19%
# to 38% from the top of a round).  At n=21 the arrays outgrow the cache,
# and job times swing most with memory traffic from other tenants.
CONDUCTANCE_MIX = {22: 1, 21: 1, 20: 3, 19: 3, 18: 6}


def _conductance_round(seed: int, r: int) -> list[Job]:
    rng = _rng(seed, 1, r)
    jobs = [Job("caterpillar l=4", "bounds", relabel(rng, caterpillar(4)))]
    jobs += [
        Job(f"graph n={n}", "bounds", random_graph(rng, n))
        for n, count in CONDUCTANCE_MIX.items()
        for _ in range(count)
    ]
    jobs.append(Job("caterpillar l=3", "bounds", relabel(rng, caterpillar(3))))
    return jobs


# Chain and caterpillar sizes per round, largest first.  The caterpillar
# sizes, and in the sweep the chain sizes too, sit close together, so that
# the median and the tail (p58 of 8 jobs a round in poincare, p70 of 10 in
# the sweep) fall inside a dense stretch of job times rather than at a gap
# between two classes.
POINCARE_CHAINS = (("flat", 140), ("shallow valley", 120), ("flat", 80))
POINCARE_CATERPILLARS = (20, 18, 16, 14, 12)
SWEEP_CHAINS = (200, 170, 140, 110, 80)
SWEEP_CATERPILLARS = (20, 17, 14, 11, 8)

# Probes of ROADMAP open item 4 per poincare run: deep valley chains, of
# which about 20% fail at l=60, and the roadmap's own reproduction, a path
# l=60 with W = [0, 1e3, ..., 1e3].  The path keeps its own labelling, under
# which its bound is nan; under some other labellings the bound comes out
# positive and below the gap, so the checker could not reject it.
POINCARE_PROBES = (60, 60, 60, 60)
STEP_PROBE_L = 60


def _chain_job(rng, kind: str, shape: str, l: int) -> Job:
    if shape == "flat":
        w = np.zeros(l)
    else:
        w = valley_potential(rng, l, SHALLOW_STEPS if shape == "shallow valley" else DEEP_STEPS)
    return Job(f"{shape} chain l={l}", kind, relabel(rng, chain(l, w)))


def _poincare_round(seed: int, r: int) -> list[Job]:
    rng = _rng(seed, 2, r)
    jobs = [_chain_job(rng, "poincare", shape, l) for shape, l in POINCARE_CHAINS]
    jobs += [Job(f"caterpillar l={l}", "poincare", relabel(rng, caterpillar(l)))
             for l in POINCARE_CATERPILLARS]
    return jobs


def _poincare_probes(seed: int) -> list[Job]:
    rng = _rng(seed, 4)
    jobs = [_chain_job(rng, "poincare", "deep valley", l) for l in POINCARE_PROBES]
    w = np.full(STEP_PROBE_L, 1e3)
    w[0] = 0.0
    jobs.append(Job(f"step chain l={STEP_PROBE_L}", "poincare", chain(STEP_PROBE_L, w)))
    return jobs


def _sweep_round(seed: int, r: int) -> list[Job]:
    rng = _rng(seed, 3, r)
    jobs = [_chain_job(rng, "sweep", "valley", l) for l in SWEEP_CHAINS]
    jobs += [Job(f"caterpillar l={l}", "sweep", relabel(rng, caterpillar(l)))
             for l in SWEEP_CATERPILLARS]
    return jobs


def _verify_round(seed: int, r: int) -> list[Job]:
    # A fresh `--seed` per job, disjoint across benchmark seeds.
    k = seed * 1_000_000 + r
    return [Job(f"verify --seed {k}", "verify", verify_seed=k)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "conductance",
            "gapline bounds on graphs with n 18..22 and caterpillars l=3,4: exhaustive cut "
            "enumeration dominates; arrays grow from L2-sized to 32 MiB",
            {"random_graph_n": CONDUCTANCE_MIX, "caterpillar_l": [3, 4]},
            _conductance_round,
            72,
        ),
        Workload(
            "poincare",
            "gap plus bounds --poincare on flat and shallow valley chains l 80..140 and "
            "caterpillars l 12..20: canonical paths and the Python load loop dominate",
            {"chain_l": POINCARE_CHAINS, "caterpillar_l": POINCARE_CATERPILLARS,
             "valley_steps": {"shallow": SHALLOW_STEPS, "deep_probe": DEEP_STEPS},
             "probe_chain_l": POINCARE_PROBES, "probe_step_chain_l": STEP_PROBE_L},
            _poincare_round,
            58,
            _poincare_probes,
        ),
        Workload(
            "sweep",
            "gap plus sweep on the 118-point grid for caterpillars l 8..20 and valley chains "
            "l 80..200: 117 dense solves of distinct matrices dominate",
            {"valley_chain_l": SWEEP_CHAINS, "caterpillar_l": SWEEP_CATERPILLARS,
             "sweep_points": 118},
            _sweep_round,
            70,
        ),
        Workload(
            "verify",
            "gapline verify --lmax 10 with a fresh seed per job: many tiny solves, cuts and "
            "quadratures, so fixed per-call cost dominates",
            {"verify_lmax": VERIFY_LMAX},
            _verify_round,
            90,
        ),
    )
}
