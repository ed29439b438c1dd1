import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapline import cli, graphcore, spectral, verify
from gapline.errors import ConsistencyError

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_caterpillar_to_file(self, tmp_path, capsys):
        out = tmp_path / "cat4.json"
        code, _, _ = run(capsys, "gen", "caterpillar", "--l", "4", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 23
        assert len(doc["edges"]) == 22
        assert "labels" in doc

    def test_path_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "--l", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 5 and len(doc["edges"]) == 4

    def test_invalid_size(self, capsys):
        code, _, err = run(capsys, "gen", "path", "--l", "0")
        assert code == 2
        assert "error" in err


class TestGap:
    def test_caterpillar_gap(self, tmp_path, capsys):
        out = tmp_path / "cat4.json"
        run(capsys, "gen", "caterpillar", "--l", "4", "-o", str(out))
        code, payload, _ = run(capsys, "gap", str(out))
        assert code == 0
        doc = json.loads(payload)
        assert abs(doc["E"]) < 1e-9
        assert doc["gap"] <= 2 * (2 / 3) ** 7
        assert len(doc["psi"]) == 23

    def test_matches_in_process_pipeline(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run(capsys, "gen", "caterpillar", "--l", "3", "-o", str(out))
        code, payload, _ = run(capsys, "gap", str(out))
        assert code == 0
        g, w, _ = graphcore.read_graph(out.read_text())
        spec = spectral.solve_ground_and_gap(spectral.assemble(g, w))
        doc = json.loads(payload)
        # serialized floats read back bit-for-bit
        assert doc["gap"] == spec.gap
        assert doc["E"] == spec.energy

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "gap", "/does/not/exist.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["gap", "bounds", "sweep"])
    def test_tolerance_option_is_usage_error(self, tmp_path, capsys, command):
        # The residual tolerance is fixed; `--tol` is an unknown option.
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "4", "-o", str(out))
        code, stdout, err = run(capsys, command, str(out), "--tol", "1e-6")
        assert code == 2
        assert stdout == ""
        assert "unrecognized arguments: --tol" in err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "edges": [[0, 0]]}')
        code, _, err = run(capsys, "gap", str(bad))
        assert code == 2
        assert "self-loop" in err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"n": True}, '"n"'),
            ({"n": 3, "edges": [[True, 2], [False, True]]}, '"edges"'),
            ({"n": 3, "edges": [[0, 1], [1, 2]], "potential": [0, True, 2]}, '"potential"'),
            ({"n": 3, "edges": [[0, 1], [1, 2]], "labels": {"a": True}}, '"labels"'),
            ({"n": 3, "edges": [[0, 1], [1, 2]], "potential": [0, {}, 2]}, '"potential"'),
            ({"n": 3, "edges": [[0, 1], [1, 2]], "potential": [0, "1.5", 2]}, '"potential"'),
        ],
    )
    def test_mistyped_values_rejected(self, tmp_path, capsys, doc, field):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, payload, err = run(capsys, "gap", str(path))
        assert code == 2 and payload == ""
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    def test_disconnected_graph_flagged(self, tmp_path, capsys):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1]]}))
        code, payload, _ = run(capsys, "gap", str(path))
        assert code == 0
        doc = json.loads(payload)
        assert doc["degenerate"] is True
        assert doc["positive"] is False

    def test_connected_graph_flags(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "4", "-o", str(out))
        code, payload, _ = run(capsys, "gap", str(out))
        assert code == 0
        doc = json.loads(payload)
        assert doc["degenerate"] is False
        assert doc["positive"] is True

    def test_error_bars_printed(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "4", "-o", str(out))
        doc = json.loads(run(capsys, "gap", str(out))[1])
        assert 0 < doc["gap_err"] < doc["gap"]
        bar = math.sqrt(2) * doc["gap_err"] / 2 / (doc["gap"] - doc["gap_err"])
        assert doc["psi_err"] == pytest.approx(bar)
        assert min(doc["psi"]) > doc["psi_err"]

    def test_degenerate_psi_err_is_null(self, tmp_path, capsys):
        out = tmp_path / "cat42.json"
        run(capsys, "gen", "caterpillar", "--l", "42", "-o", str(out))
        code, payload, _ = run(capsys, "gap", str(out))
        assert code == 0
        doc = json.loads(payload, parse_constant=lambda c: pytest.fail(f"{c} in output"))
        assert doc["degenerate"] is True and doc["positive"] is False
        assert doc["psi_err"] is None and doc["gap"] <= doc["gap_err"]

    def test_consistency_error_exits_4(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "4", "-o", str(out))
        original = spectral.solve_ground_and_gap

        def failing(*args, **kwargs):
            raise ConsistencyError("walk matrix rows do not sum to 1")

        # Patch every module that holds a reference, not only `spectral`.
        for name, module in list(sys.modules.items()):
            bound = getattr(module, "solve_ground_and_gap", None)
            if name.startswith("gapline") and bound is original:
                monkeypatch.setattr(module, "solve_ground_and_gap", failing)
        code, payload, err = run(capsys, "gap", str(out))
        assert code == 4
        assert payload == ""
        assert err == "error: walk matrix rows do not sum to 1\n"


class TestBounds:
    def test_all_bounds_small_path(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "3", "-o", str(out))
        code, payload, _ = run(capsys, "bounds", str(out))
        assert code == 0
        doc = json.loads(payload)
        assert doc["conductance"]["lower"] <= doc["gap"] <= doc["conductance"]["upper"]
        assert doc["poincare"]["lower"] <= doc["gap"] + 1e-10
        assert doc["single_peaked"]["lower"] == pytest.approx(1 / 36)

    def test_explicit_cut(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "3", "-o", str(out))
        code, payload, _ = run(capsys, "bounds", str(out), "--cut", "0")
        assert code == 0
        doc = json.loads(payload)
        assert doc["cut"]["subset"] == [0]
        assert doc["gap"] <= doc["cut"]["upper"] + 1e-10

    def test_one_eigensolve_for_all_bounds(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "5", "-o", str(out))
        original = spectral.solve_ground_and_gap
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # Patch every module that holds a reference, not only `spectral`.
        for name, module in list(sys.modules.items()):
            bound = getattr(module, "solve_ground_and_gap", None)
            if name.startswith("gapline") and bound is original:
                monkeypatch.setattr(module, "solve_ground_and_gap", counting)
        code, _, _ = run(capsys, "bounds", str(out))
        assert code == 0
        assert len(calls) == 1

    def test_size_guard_reported_per_section(self, tmp_path, capsys):
        out = tmp_path / "cat5.json"
        run(capsys, "gen", "caterpillar", "--l", "5", "-o", str(out))
        code, payload, _ = run(capsys, "bounds", str(out))
        assert code == 0
        doc = json.loads(payload)
        assert "n <= 24" in doc["conductance"]["error"]
        assert 0 < doc["poincare"]["lower"] <= doc["gap"] + 1e-10
        assert "error" in doc["single_peaked"]

    def test_explicit_conductance_size_guard_fails(self, tmp_path, capsys):
        out = tmp_path / "cat5.json"
        run(capsys, "gen", "caterpillar", "--l", "5", "-o", str(out))
        code, _, err = run(capsys, "bounds", str(out), "--conductance")
        assert code == 2
        assert "n <= 24" in err

    def test_single_peaked_precondition_failure(self, tmp_path, capsys):
        out = tmp_path / "cat.json"
        run(capsys, "gen", "caterpillar", "--l", "3", "-o", str(out))
        code, _, err = run(capsys, "bounds", str(out), "--single-peaked")
        assert code == 3
        assert "single-peaked" in err

    def test_underflowing_ground_state_refused(self, tmp_path, capsys):
        # psi falls to about 1e-177 along the chain; kappa' overflows float64.
        l = 60
        edges = [[i, i + 1] for i in range(l - 1)]
        doc = {"n": l, "edges": edges, "potential": [0.0] + [1e3] * (l - 1)}
        path = tmp_path / "step.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bounds", str(path), "--poincare")
        assert code == 3
        assert "smallest ground-state amplitude" in err
        code, payload, _ = run(capsys, "bounds", str(path))
        assert code == 0
        doc = json.loads(payload, parse_constant=lambda c: pytest.fail(f"{c} in output"))
        assert "smallest ground-state amplitude" in doc["poincare"]["error"]
        # psi = [1e-200, 1, 1e-200]: every refusal stays inside its section.
        doc = {"n": 3, "edges": [[0, 1], [1, 2]], "potential": [1e200, 0.0, 1e200]}
        path.write_text(json.dumps(doc))
        code, payload, _ = run(capsys, "bounds", str(path))
        assert code == 0
        doc = json.loads(payload, parse_constant=lambda c: pytest.fail(f"{c} in output"))
        assert "resolved positive" in doc["conductance"]["error"]
        assert "error" in doc["single_peaked"]

    def test_zero_mass_cut_refused(self, tmp_path, capsys):
        path = tmp_path / "e2.json"
        path.write_text(json.dumps({"n": 2, "edges": [], "potential": [0, 0]}))
        code, stdout, err = run(capsys, "bounds", str(path), "--cut", "0")
        assert code == 3 and stdout == ""
        assert err.count("\n") == 1 and err.startswith("error: cut ratio undefined")

    def test_disconnected_graph_refused_per_section(self, tmp_path, capsys):
        path = tmp_path / "disc.json"
        doc = {"n": 4, "edges": [[0, 1], [2, 3]], "potential": [0.0, 1.0, 0.5, 2.0]}
        path.write_text(json.dumps(doc))
        code, payload, _ = run(capsys, "bounds", str(path))
        assert code == 0
        doc = json.loads(payload)
        assert all("error" in doc[name] for name in ("conductance", "poincare", "single_peaked"))
        assert run(capsys, "bounds", str(path), "--poincare")[0] == 3

    def test_unresolved_ground_state_not_single_peaked(self, tmp_path, capsys):
        # The step chain's tail is rounding noise (entries of about -1e-48):
        # refused for its signs, not for a plateau split by noise.
        l = 60
        doc = {"n": l, "edges": [[i, i + 1] for i in range(l - 1)],
               "potential": [0.0] + [1e3] * (l - 1)}
        path = tmp_path / "step.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bounds", str(path), "--single-peaked")
        assert code == 3
        assert "single-peaked bound needs a ground state resolved positive" in err
        assert "smallest ground-state amplitude" in err

    def test_flat_chain_single_peaked(self, tmp_path, capsys):
        # Solver noise on the constant ground state must not split its plateau.
        l = 140
        doc = {"n": l, "edges": [[i, i + 1] for i in range(l - 1)], "potential": [0.0] * l}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        code, payload, _ = run(capsys, "bounds", str(path), "--single-peaked")
        assert code == 0
        doc = json.loads(payload)
        assert doc["single_peaked"]["lower"] == pytest.approx(1 / (2 * 2 * l**2))
        assert doc["single_peaked"]["lower"] <= doc["gap"]


class TestSweep:
    def test_csv_format(self, tmp_path, capsys):
        gfile = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "4", "-o", str(gfile))
        csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", str(gfile), "--grid", "5", "-o", str(csv))
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "s,gamma,bound,regime,single_peaked"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[3] in ("bulk", "endgame")

    def test_sweep_builds_one_laplacian(self, tmp_path, capsys, monkeypatch):
        gfile = tmp_path / "cat3.json"
        run(capsys, "gen", "caterpillar", "--l", "3", "-o", str(gfile))
        original = spectral.laplacian
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # Patch every module that holds a reference, not only `spectral`.
        for name, module in list(sys.modules.items()):
            bound = getattr(module, "laplacian", None)
            if name.startswith("gapline") and bound is original:
                monkeypatch.setattr(module, "laplacian", counting)
        code, payload, _ = run(capsys, "sweep", str(gfile))
        assert code == 0
        assert len(payload.strip().split("\n")) == 119
        assert len(calls) == 1

    @pytest.mark.parametrize("n, edges", [(1, []), (3, []), (4, [(0, 1)])])
    def test_needs_a_graph_with_edges(self, tmp_path, capsys, n, edges):
        gfile = tmp_path / "g.json"
        gfile.write_text(graphcore.write_graph(graphcore.Graph(n, edges)))
        code, stdout, err = run(capsys, "sweep", str(gfile), "--grid", "5")
        if edges:
            assert code == 0
        else:
            assert code == 3 and stdout == ""
            assert err.startswith("error: ") and "edges" in err

    def test_deterministic(self, tmp_path, capsys):
        gfile = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "4", "-o", str(gfile))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "sweep", str(gfile), "--grid", "9", "-o", str(a))
        run(capsys, "sweep", str(gfile), "--grid", "9", "-o", str(b))
        assert a.read_text() == b.read_text()


class TestVerify:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--lmax", "4", "--seed", "0")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_unresolved_caterpillar_gaps_fail(self):
        # Near 1e-14 float64 no longer resolves the gap from zero.
        rows = [r for r in verify.check_caterpillar(42) if r.check.startswith("caterpillar_gap")]
        *gaps, slope = rows
        assert gaps[-1].instance == "l=42"
        assert gaps[-1].actual.startswith("unresolved") and not gaps[-1].passed
        resolved = [int(r.instance[2:]) for r in gaps if "unresolved" not in r.actual]
        assert slope.check == "caterpillar_gap_slope" and slope.passed
        assert slope.instance == f"l=4..{max(resolved)}"

    def test_sandwich_and_walk_rows_share_instances(self):
        rows = verify.check_sandwich(0)
        sandwich = [r.instance for r in rows if r.check == "conductance_sandwich"]
        walk = [r.instance for r in rows if r.check == "walk_contracts"]
        assert len(sandwich) == len(walk) == 100 and len(rows) == 200
        assert sandwich == walk

    def test_one_solve_per_instance(self, monkeypatch):
        # 9 caterpillar gaps and 9 flat paths at l = 2..10, and one solve
        # for each of the 100 random instances.
        calls = []
        solve = spectral.solve_ground_and_gap

        def counted(h):
            calls.append(h)
            return solve(h)

        monkeypatch.setattr(spectral, "solve_ground_and_gap", counted)
        verify.run_verification(lmax=10)
        assert len(calls) == 118

    def test_one_caterpillar_build_and_assembly_per_size(self, monkeypatch):
        # Caterpillars l = 2..10 are built and assembled once each; with 9
        # flat paths and the 100 random instances that is 118 assemblies.
        # The walk's shifted matrix goes through bounds' own binding.
        counts = {"build": 0, "assemble": 0}
        build, assemble = graphcore.build_caterpillar, spectral.assemble

        def counted_build(l):
            counts["build"] += 1
            return build(l)

        def counted_assemble(g, w):
            counts["assemble"] += 1
            return assemble(g, w)

        monkeypatch.setattr(graphcore, "build_caterpillar", counted_build)
        monkeypatch.setattr(spectral, "assemble", counted_assemble)
        verify.run_verification(lmax=10)
        assert counts == {"build": 9, "assemble": 118}

    def test_does_not_load_scipy_integrate(self):
        # A fresh interpreter, so no other test has imported the module.
        script = (
            "import contextlib, io, sys\n"
            "from gapline import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--lmax', '3']) == 0\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"

    def test_table_has_expected_rows(self, capsys):
        _, out, _ = run(capsys, "verify", "--lmax", "3")
        assert "caterpillar_residual" in out
        assert "flat_path_gap" in out
        assert "conductance_sandwich" in out


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_back_to_back_calls_get_fresh_defaults(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "4", "-o", str(out))
        code, payload, _ = run(capsys, "bounds", str(out), "--conductance")
        assert code == 0 and set(json.loads(payload)) == {"gap", "conductance"}
        code, payload, _ = run(capsys, "bounds", str(out))
        assert code == 0
        assert set(json.loads(payload)) == {"gap", "conductance", "poincare", "single_peaked"}
        code, payload, _ = run(capsys, "sweep", str(out), "--grid", "5")
        assert code == 0 and len(payload.splitlines()) == 6
        code, payload, _ = run(capsys, "sweep", str(out))
        assert code == 0 and len(payload.splitlines()) > 6
        assert run(capsys, "gen", "path", "--l", "3")[0] == 0
        code, payload, _ = run(capsys, "gap", str(out))
        assert code == 0 and "residual" in json.loads(payload)


class TestReadme:
    @staticmethod
    def long_options() -> dict[str, set[str]]:
        """Each subcommand's long options, as `build_parser()` defines them."""
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        return {
            name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
            for name, p in sub.choices.items()
        }

    def test_every_option_is_documented(self):
        text = README.read_text()
        options = set().union(*self.long_options().values())
        # `--l` must not match inside `--lmax`.
        missing = {o for o in options if not re.search(rf"{re.escape(o)}(?![\w-])", text)}
        assert missing == set()

    def test_documented_command_lines_use_defined_options(self):
        options = self.long_options()
        lines = [line for line in README.read_text().splitlines() if line.startswith("gapline ")]
        assert lines
        for line in lines:
            command = line.split()[1]
            used = set(re.findall(r"--[\w-]+", line.split("#")[0]))
            assert used <= options[command], line

    def test_library_example_runs(self, capsys):
        (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
        exec(compile(block, "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        gap, ceiling = map(float, lines[0].split())
        assert gap <= ceiling
        assert float(lines[-1]) == pytest.approx(gap, rel=1e-9)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_no_partial_writes(self, tmp_path, capsys):
        # output lands atomically: no temp residue after success
        out = tmp_path / "g.json"
        run(capsys, "gen", "path", "--l", "3", "-o", str(out))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".gapline-")]
        assert leftovers == []
        assert out.exists()

    @pytest.mark.parametrize("command", ["gap", "bounds", "sweep"])
    def test_overflowing_potential_spread(self, tmp_path, capsys, command):
        # Both entries are finite; max - min is not.
        path = tmp_path / "wide.json"
        path.write_text('{"n": 2, "edges": [[0, 1]], "potential": [1e308, -1e308]}')
        code, stdout, err = run(capsys, command, str(path))
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and '"potential"' in err

    @pytest.mark.parametrize("command", ["gap", "bounds", "sweep"])
    def test_directory_as_input(self, tmp_path, capsys, command):
        code, stdout, err = run(capsys, command, str(tmp_path))
        assert code == 2 and stdout == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["gen", "gap", "bounds", "sweep"])
    def test_directory_as_output(self, tmp_path, capsys, command):
        gfile = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "3", "-o", str(gfile))
        target = tmp_path / "out"
        target.mkdir()
        args = ["path", "--l", "3"] if command == "gen" else [str(gfile)]
        code, stdout, err = run(capsys, command, *args, "-o", str(target))
        assert code == 2 and stdout == ""
        assert err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "p.json"]
        assert list(target.iterdir()) == []


# Ties, zeros, and magnitudes whose squares overflow float64.
LEVELS = [0.0, 1.0, -1.0, 0.5, -7.25, 1e-300, 1e10, -1e10, 1e170, -1e170, 1e300, -1e300]

FUZZ_COMMANDS = [
    ["gap"],
    ["bounds"],
    ["bounds", "--conductance"],
    ["bounds", "--poincare"],
    ["bounds", "--single-peaked"],
    ["bounds", "--cut", "0"],
    ["sweep", "--grid", "5"],
    ["sweep"],
]


@st.composite
def graph_documents(draw):
    n = draw(st.integers(1, 10))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    shape = draw(st.sampled_from(["edgeless", "complete", "random", "two cliques"]))
    if shape == "edgeless":
        edges = []
    elif shape == "complete":
        edges = pairs
    elif shape == "random":
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    else:
        edges = [(x, y) for x, y in pairs if (x < n // 2) == (y < n // 2)]
    w = draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
    return graphcore.write_graph(graphcore.Graph(n, edges), graphcore.Potential(w))


def _main(*argv):
    # `run` needs capsys, a function-scoped fixture that hypothesis rejects.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _no_constant(name):
    raise AssertionError(f"non-finite number {name} in JSON output")


@settings(deadline=None, max_examples=120)
@given(graph_documents())
def test_every_run_is_a_result_or_a_refusal(text):
    """Every command on any small graph exits 0 with finite output, or exits
    2, 3 or 4 with one error line and no output; nothing escapes main."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w") as fh:
            fh.write(text)
        for command, *options in FUZZ_COMMANDS:
            code, stdout, err = _main(command, path, *options)
            assert code in (0, 2, 3, 4), (command, options, code, err)
            if code != 0:
                assert stdout == "" and err.startswith("error: "), (command, options, err)
                continue
            assert err == ""
            if command == "sweep":
                for line in stdout.splitlines()[1:]:
                    s, gamma, bound = line.split(",")[:3]
                    assert all(math.isfinite(float(v)) for v in (s, gamma, bound) if v != "na")
            else:
                json.loads(stdout, parse_constant=_no_constant)
