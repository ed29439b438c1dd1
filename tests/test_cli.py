import json
import sys

import numpy as np
import pytest

from gapline import bounds, cli, graphcore, spectral


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
        # serialized floats agree bit-for-bit at 17 significant digits
        assert doc["gap"] == float(f"{spec.gap:.17g}")
        assert doc["E"] == float(f"{spec.energy:.17g}")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "gap", "/does/not/exist.json")
        assert code == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "edges": [[0, 0]]}')
        code, _, err = run(capsys, "gap", str(bad))
        assert code == 2
        assert "self-loop" in err

    def test_env_tolerance(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "p.json"
        run(capsys, "gen", "path", "--l", "4", "-o", str(out))
        monkeypatch.setenv("GAPLINE_TOL", "1e-6")
        code, _, _ = run(capsys, "gap", str(out))
        assert code == 0


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

    def test_poincare_builds_no_path_set(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "cat3.json"
        run(capsys, "gen", "caterpillar", "--l", "3", "-o", str(out))
        original = bounds.default_canonical_paths
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            bound = getattr(module, "default_canonical_paths", None)
            if name.startswith("gapline") and bound is original:
                monkeypatch.setattr(module, "default_canonical_paths", counting)
        code, payload, _ = run(capsys, "bounds", str(out), "--poincare")
        assert code == 0
        assert 0 < json.loads(payload)["poincare"]["lower"]
        assert calls == []

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

    def test_table_has_expected_rows(self, capsys):
        _, out, _ = run(capsys, "verify", "--lmax", "3")
        assert "caterpillar_residual" in out
        assert "flat_path_gap" in out
        assert "conductance_sandwich" in out


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
