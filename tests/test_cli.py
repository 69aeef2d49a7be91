import argparse
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whirlknight import (
    FAMILIES,
    BoardGeometry,
    build_digraph,
    build_t1,
    certificate_from_json,
    certificate_to_json,
    cli,
    digraph_from_json,
    digraph_to_json,
    search_tour,
    tour_from_json,
    tour_to_json,
    verify_certificate,
)
from whirlknight.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """The exit code of an argparse usage error; nothing may reach stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert capsys.readouterr().out == ""
    return exc.value.code


class TestDigraph:
    def test_n6_writes_file(self, tmp_path, capsys):
        out = tmp_path / "g6.json"
        code, stdout, _ = run(capsys, "digraph", "--n", "6", "--out", str(out))
        assert code == 0
        assert "vertices=36" in stdout
        doc = json.loads(out.read_text())
        assert len(doc["vertices"]) == 36

    def test_n3_centre_excluded(self, capsys):
        code, stdout, _ = run(capsys, "digraph", "--n", "3")
        assert code == 0 and "vertices=8" in stdout

    def test_n2_rejected(self, capsys):
        code, _, stderr = run(capsys, "digraph", "--n", "2")
        assert code == 2 and "error" in stderr


class TestCert:
    def test_verify_t1_n14(self, capsys):
        code, stdout, _ = run(capsys, "cert", "verify", "--family", "t1", "--n", "14")
        assert code == 0
        assert "valid=true" in stdout and "rhs=1" in stdout

    def test_verify_t2_n12(self, capsys):
        code, stdout, _ = run(capsys, "cert", "verify", "--family", "t2", "--n", "12")
        assert code == 0 and "valid=true" in stdout

    def test_build_wrong_residue(self, capsys):
        code, _, stderr = run(capsys, "cert", "build", "--family", "t1", "--n", "12")
        assert code == 2 and stderr == "error: expected n = 6 (mod 8) with n >= 6, got 12\n"

    def test_family_choices_are_the_table(self):
        # The lists are read from the package's table, which loads no layer.
        def family_choices(*command):
            parser = cli._build_parser()
            for name in command:
                parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[name]
            return next(a.choices for a in parser._actions if a.dest == "family")

        assert family_choices("cert", "build") == [*FAMILIES, "n3"]
        assert family_choices("cert", "verify") == [*FAMILIES, "n3", "file"]

    def test_build_then_verify_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        code, _, _ = run(capsys, "cert", "build", "--family", "t2", "--n", "20",
                         "--out", str(path))
        assert code == 0
        code, stdout, _ = run(capsys, "cert", "verify", "--family", "file",
                              "--in", str(path))
        assert code == 0 and "valid=true" in stdout

    def test_verify_n3_with_c3_fails(self, capsys):
        code, stdout, _ = run(capsys, "cert", "verify", "--family", "n3", "--c", "3")
        assert code == 1 and "valid=false" in stdout

    def test_build_file_family_rejected(self, capsys):
        assert usage_error(capsys, "cert", "build", "--family", "file") == 2

    @pytest.mark.parametrize("argv,message", [
        (("verify", "--family", "file"), "--in is required for family file"),
        (("build", "--family", "t1"), "--n is required for family t1"),
    ])
    def test_missing_input_flag_is_an_error(self, argv, message, capsys):
        assert run(capsys, "cert", *argv) == (2, "", f"error: {message}\n")

    def test_verify_rejects_out(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert usage_error(capsys, "cert", "verify", "--family", "t1", "--n", "14",
                           "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("family", ["t1", "t2", "n3"])
    def test_verify_fixed_family_rejects_in(self, family, capsys):
        n = {"t1": ["--n", "14"], "t2": ["--n", "12"], "n3": []}[family]
        code, stdout, stderr = run(capsys, "cert", "verify", "--family", family, *n,
                                   "--in", "/nonexistent.json")
        assert code == 2 and stdout == ""
        assert stderr == "error: --in is read only with --family file\n"

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_verify_file_with_repeated_cell_is_an_error(self, field, tmp_path, capsys):
        # Last-entry-wins would read this as the valid t1 certificate.
        path = tmp_path / "c.json"
        run(capsys, "cert", "build", "--family", "t1", "--n", "6", "--out", str(path))
        doc = json.loads(path.read_text())
        i, j, _ = doc[field][0]
        doc[field].insert(0, [i, j, 7])
        path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "cert", "verify", "--family", "file",
                                   "--in", str(path))
        assert code == 2 and stdout == ""
        assert "twice" in stderr


    def test_verify_file_with_a_short_entry_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        run(capsys, "cert", "build", "--family", "t1", "--n", "14", "--out", str(path))
        doc = json.loads(path.read_text())
        doc["alpha"][0] = doc["alpha"][0][:2]
        path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "cert", "verify", "--family", "file", "--in", str(path))
        text = f"{doc['alpha'][0]} is not [i, j, x]"
        assert (code, stdout, stderr) == (2, "", f"error: malformed certificate JSON: alpha entry {text}\n")

    def test_verify_file_whose_beta_is_not_a_list_is_an_error(self, tmp_path, capsys):
        # Read as an empty beta, this was a definite negative: valid=false rhs=-3, exit 1.
        path = tmp_path / "c.json"
        run(capsys, "cert", "build", "--family", "t1", "--n", "14", "--out", str(path))
        path.write_text(json.dumps({**json.loads(path.read_text()), "beta": {}}))
        code, stdout, stderr = run(capsys, "cert", "verify", "--family", "file", "--in", str(path))
        assert (code, stdout, stderr) == (2, "", "error: malformed certificate JSON: beta must be a list, got {}\n")

    def test_verify_file_with_fractional_entries_is_an_error(self, tmp_path, capsys):
        # Truncated to 1 these are the valid t1 certificate; as written, max LHS is 9/10.
        path = tmp_path / "c.json"
        run(capsys, "cert", "build", "--family", "t1", "--n", "6", "--out", str(path))
        doc = json.loads(path.read_text())
        assert doc["alpha"] == [[0, 2, 1], [1, 2, 1]]
        doc["alpha"] = [[0, 2, 1.9], [1, 2, 1.9]]
        path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "cert", "verify", "--family", "file",
                                   "--in", str(path))
        assert code == 2 and stdout == ""
        assert "integer" in stderr

    @pytest.mark.parametrize("action,n", [("verify", "14"), ("build", "5")])
    def test_n_contradicting_fixed_family_is_an_error(self, action, n, capsys):
        code, stdout, stderr = run(capsys, "cert", action, "--family", "n3", "--n", n)
        assert code == 2 and stdout == ""
        assert stderr == f"error: --n {n} contradicts the certificate's n=3\n"

    def test_n_contradicting_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "c14.json"
        run(capsys, "cert", "build", "--family", "t1", "--n", "14", "--out", str(path))
        code, stdout, stderr = run(capsys, "cert", "verify", "--family", "file",
                                   "--in", str(path), "--n", "6")
        assert code == 2 and stdout == ""
        assert stderr == "error: --n 6 contradicts the certificate's n=14\n"
        code, stdout, _ = run(capsys, "cert", "verify", "--family", "file",
                              "--in", str(path), "--n", "14")
        assert code == 0 and "valid=true" in stdout

    def test_verify_prints_first_ten_violations(self, tmp_path, capsys, dg):
        cert = dataclasses.replace(build_t1(14), gamma=0)
        path = tmp_path / "c14.json"
        path.write_text(certificate_to_json(cert))
        code, stdout, _ = run(capsys, "cert", "verify", "--family", "file", "--in", str(path))
        lines = stdout.splitlines()
        assert code == 1 and len(lines) == 11
        assert lines[0] == "valid=false rhs=8 max_lhs=1 violations=26"
        expected = [
            f"violation arc={tuple(a.tail)}->{tuple(a.head)} w={a.w} lhs={lhs}"
            for a, lhs in verify_certificate(dg(14), cert).violations[:10]
        ]
        assert lines[1:] == expected

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("n,cell", [
        pytest.param(300, [999, 999], id="off the board"),
        pytest.param(300, [-1, 0], id="negative"),
        pytest.param(301, [150, 150], id="odd centre"),
    ])
    def test_bad_support_rejected_before_building(self, n, cell, field, tmp_path, capsys,
                                                  monkeypatch):
        def refuse(size):
            raise AssertionError(f"built the n={size} digraph")

        monkeypatch.setattr("whirlknight.digraph.build_digraph", refuse)
        doc = {"n": n, "c": n // 2, "gamma": -1, "alpha": [], "beta": []}
        doc[field] = [[*cell, 1]]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        code, stdout, stderr = run(capsys, "cert", "verify", "--family", "file", "--in", str(path))
        message = f"{field} support cell {tuple(cell)} is not a vertex"
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


class TestLp:
    @pytest.mark.parametrize("n,c,expected", [(6, 3, 1), (3, 3, 0), (16, 8, 0)])
    def test_exit_codes(self, capsys, n, c, expected):
        code, stdout, _ = run(capsys, "lp", "--n", str(n), "--c", str(c))
        assert code == expected
        doc = json.loads(stdout)
        assert doc["n"] == n and doc["c"] == c
        assert doc["feasible"] == (expected == 0)
        assert doc["min_coil"] <= doc["max_coil"]

    def test_failed_self_check_is_an_error_not_a_negative(self, capsys, monkeypatch):
        def broken(g, c):
            raise AssertionError("matching solves disagree:\nmin 6 > max 5")

        monkeypatch.setattr("whirlknight.polytope.lp_feasible", broken)
        code, stdout, stderr = run(capsys, "lp", "--n", "6", "--c", "3")
        assert code == 2 and stdout == ""
        assert stderr == "error: AssertionError: matching solves disagree: min 6 > max 5\n"

    def test_failed_proof_is_an_error_not_a_negative(self, capsys, monkeypatch):
        import whirlknight.polytope as polytope

        solve = polytope._min_cost_matching

        def perturbed(*args):
            row_arc, u, v = solve(*args)
            v[0] += 1  # some arc into vertex 0 gets LHS 1
            return row_arc, u, v

        monkeypatch.setattr(polytope, "_min_cost_matching", perturbed)
        code, stdout, stderr = run(capsys, "lp", "--n", "6", "--c", "3")
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: AssertionError: potentials give no certificate")

    def test_crossed_ends_are_an_error_not_a_negative(self, capsys, monkeypatch, dg):
        import whirlknight.polytope as polytope

        solve = polytope._extreme_cover
        monkeypatch.setattr(polytope, "_extreme_cover", lambda g, gamma, start=None: solve(g, -gamma))
        message = "matching solves disagree: min 8 > max 6"
        with pytest.raises(AssertionError, match=f"^{message}$"):
            polytope.coil_interval(dg(8))
        code, stdout, stderr = run(capsys, "lp", "--n", "8", "--c", "7")
        assert (code, stdout, stderr) == (2, "", f"error: AssertionError: {message}\n")


class TestTour:
    def test_search_n3_and_verify(self, tmp_path, capsys):
        out = tmp_path / "t3.json"
        code, stdout, _ = run(capsys, "tour", "search", "--n", "3",
                              "--budget", "1000", "--out", str(out))
        assert code == 0 and "found=true" in stdout
        code, stdout, _ = run(capsys, "tour", "verify", "--in", str(out))
        assert code == 0 and "coil=3" in stdout

    def test_search_n6_coil3_not_found(self, capsys):
        code, stdout, _ = run(capsys, "tour", "search", "--n", "6", "--coil", "3",
                              "--budget", "10000000")
        assert code == 1
        assert "found=false" in stdout and "exhausted=true" in stdout

    def test_verify_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3}')
        code, _, stderr = run(capsys, "tour", "verify", "--in", str(bad))
        assert code == 2 and "error" in stderr

    def test_verify_invalid_tour_is_negative_not_error(self, tmp_path, capsys):
        bad = tmp_path / "nontour.json"
        bad.write_text(json.dumps({
            "n": 3,
            "cells": [[0, 0], [2, 1], [0, 2], [1, 0], [2, 2], [0, 1], [1, 2], [2, 0]],
            "coil": 3,
        }))
        code, stdout, _ = run(capsys, "tour", "verify", "--in", str(bad))
        assert code == 1 and "valid=false" in stdout

    def test_verify_file_whose_cells_are_not_a_list_is_an_error(self, tmp_path, capsys):
        # Read as no cells, this was a definite negative: not Hamiltonian, exit 1.
        bad = tmp_path / "t.json"
        bad.write_text(json.dumps({"n": 6, "cells": {}}))
        got = run(capsys, "tour", "verify", "--in", str(bad))
        assert got == (2, "", "error: malformed tour JSON: cells must be a list, got {}\n")

    TAMPERED = "the file claims coil=99, the tour has coil=5"
    NOT_AN_INT = "malformed tour JSON: coil must be an integer, got 'x'"

    @pytest.mark.parametrize("coil,verify,render_code,render_err", [
        (5, (0, "valid=true n=6 coil=5\n", ""), 0, ""),
        (None, (0, "valid=true n=6 coil=5\n", ""), 0, ""),
        (99, (1, f"valid=false error={json.dumps(TAMPERED)}\n", ""), 2, f"error: {TAMPERED}\n"),
        ("x", (2, "", f"error: {NOT_AN_INT}\n"), 2, f"error: {NOT_AN_INT}\n"),
    ], ids=["matching", "absent", "tampered", "not-an-int"])
    def test_verify_checks_the_file_coil(self, coil, verify, render_code, render_err, tmp_path, capsys):
        path = tmp_path / "t6.json"
        run(capsys, "tour", "search", "--n", "6", "--coil", "5", "--budget", "100000", "--out", str(path))
        doc = json.loads(path.read_text())
        assert doc["coil"] == 5
        if coil is None:
            del doc["coil"]
        else:
            doc["coil"] = coil
        path.write_text(json.dumps(doc))
        assert run(capsys, "tour", "verify", "--in", str(path)) == verify
        code, stdout, stderr = run(capsys, "render", "--in", str(path))
        assert (code, stderr) == (render_code, render_err)
        assert (stdout != "") == (render_code == 0)

    def test_verify_with_contradicting_n_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "t3.json"
        run(capsys, "tour", "search", "--n", "3", "--budget", "1000", "--out", str(out))
        code, stdout, stderr = run(capsys, "tour", "verify", "--in", str(out), "--n", "8")
        assert code == 2 and stdout == ""
        assert stderr == "error: --n 8 contradicts the tour's n=3\n"

    def test_search_missing_n(self, capsys):
        assert usage_error(capsys, "tour", "search") == 2

    def test_verify_rejects_coil(self, tmp_path, capsys):
        path = tmp_path / "t3.json"
        run(capsys, "tour", "search", "--n", "3", "--budget", "1000", "--out", str(path))
        assert usage_error(capsys, "tour", "verify", "--in", str(path), "--coil", "3") == 2

    def test_search_rejects_in(self, tmp_path, capsys):
        path = tmp_path / "t3.json"
        run(capsys, "tour", "search", "--n", "3", "--budget", "1000", "--out", str(path))
        assert usage_error(capsys, "tour", "search", "--n", "6", "--in", str(path)) == 2

    def test_seed_and_budget_flags(self, capsys):
        code, stdout, _ = run(capsys, "tour", "search", "--n", "6", "--budget", "50000",
                              "--seed", "11")
        assert code in (0, 1)

    @pytest.mark.parametrize("argv,code", [
        (("--n", "3", "--budget", "1000"), 0),
        (("--n", "6", "--coil", "3", "--budget", "10000000"), 1),
    ])
    def test_search_stderr_holds_only_progress_lines(self, argv, code, capsys):
        # Both searches end below 100 000 nodes, so no progress line is due.
        got, _, stderr = run(capsys, "tour", "search", *argv)
        assert got == code and stderr == ""

    def test_progress_lines_go_to_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr("whirlknight.tours._PROGRESS_EVERY", 100)
        got = run(capsys, "tour", "search", "--n", "8", "--coil", "6", "--budget", "250")
        assert got == (1, "found=false nodes=250 exhausted=false\n",
                       "nodes=100 depth=31\nnodes=200 depth=37\n")

    BAD_CELLS = [
        (30, [], "not Hamiltonian: 900 vertices missing, e.g. [(0, 0), (0, 1), (0, 2)]"),
        (30, [[0, 0], [0, 0]], "vertex (0, 0) is visited twice"),
        (30, [[0, 0], [30, 0]], "(30, 0) is not a vertex of the n=30 digraph"),
        (31, [[15, 15]], "(15, 15) is not a vertex of the n=31 digraph"),
    ]

    @pytest.mark.parametrize("n,cells,message", BAD_CELLS)
    def test_bad_cells_are_an_invalid_tour(self, n, cells, message, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n": n, "cells": cells}))
        code, stdout, stderr = run(capsys, "tour", "verify", "--in", str(path))
        assert (code, stdout, stderr) == (1, f"valid=false error={json.dumps(message)}\n", "")
        code, stdout, stderr = run(capsys, "render", "--in", str(path))
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("n,cells", [(600, [[0, 0]]), (3000, []), (3001, [[1500, 1500]])])
    def test_tour_file_above_the_size_limit_is_an_error_before_any_cell(self, n, cells, tmp_path,
                                                                        capsys, monkeypatch):
        def refuse(g, _):
            raise AssertionError(f"walked the cells of an n={g.n} tour")

        monkeypatch.setattr("whirlknight.tours._tour_arcs", refuse)
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n": n, "cells": cells}))
        for command in (("tour", "verify"), ("render",)):
            got = run(capsys, *command, "--in", str(path))
            assert got == (2, "", f"error: board side must be at most 512, got {n}\n")

    @pytest.mark.parametrize("command", [("tour", "verify"), ("render",)], ids=" ".join)
    def test_tour_file_whose_n_is_no_board_is_an_error(self, command, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"n": 2, "cells": []}))
        got = run(capsys, *command, "--in", str(path))
        assert got == (2, "", "error: board side must be an integer >= 3, got 2\n")

    @pytest.mark.parametrize("command,calls", [(("tour", "verify"), 108), (("render",), 324)],
                             ids=["tour verify", "render"])
    def test_tour_file_cells_are_checked_once(self, command, calls, tmp_path, capsys, monkeypatch):
        # tour verify: one index per cell for the vertex check, two per step in step_arcs.
        # render --in adds the checks of render.tour_spec and render(), both public.
        path = tmp_path / "t6.json"
        path.write_text(tour_to_json(6, search_tour(build_digraph(6), 5, budget=100_000)))
        index, counted = BoardGeometry.index, []

        def counting(geom, c):
            counted.append(c)
            return index(geom, c)

        monkeypatch.setattr(BoardGeometry, "index", counting)
        code, _, stderr = run(capsys, *command, "--in", str(path))
        assert (code, stderr, len(counted)) == (0, "", calls)

    @pytest.mark.parametrize("n,budget,message", [
        (3001, 0, "board side must be at most 512, got 3001"),
        (3000, 0, "board side must be at most 512, got 3000"),
        (1, 10, "board side must be an integer >= 3, got 1"),
    ])
    def test_bad_search_rejected_before_building(self, n, budget, message, capsys):
        # build_digraph checks n before it allocates, so a bad budget beside a bad n is not named.
        got = run(capsys, "tour", "search", "--n", str(n), "--budget", str(budget))
        assert got == (2, "", f"error: {message}\n")

    def test_bad_search_rejected_after_building(self, capsys):
        # On a board within the size limit, search_tour checks its own arguments after the build.
        got = run(capsys, "tour", "search", "--n", "6", "--budget", "0")
        assert got == (2, "", "error: budget must be >= 1\n")
        args = cli._build_parser().parse_args(["tour", "search", "--n", "6"])
        args.coil = 5.5  # argparse gives an int; a caller of cmd_tour_search may not
        with pytest.raises(ValueError, match=r"^coil count must be an integer, got 5\.5$"):
            cli.cmd_tour_search(args)


@pytest.mark.parametrize("argv", [
    ["digraph", "--n", "6"],
    ["lp", "--n", "6", "--c", "5"],
    ["tour", "search", "--n", "6"],
    ["render", "--n", "6"],
    ["cert", "verify", "--family", "t1", "--n", "6"],
    ["cert", "verify", "--family", "file", "--in", "c6.json"],
    ["render", "--in", "c6.json"],
    ["tour", "verify", "--in", "t6.json"],  # any tour file above the limit: an error, not an invalid tour
    ["render", "--in", "t6.json"],
], ids=" ".join)
def test_board_above_the_size_limit_is_an_error(argv, tmp_path, capsys, monkeypatch):
    # A limit of 5 makes n = 6 too large, so every path is checked on a small board.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c6.json").write_text(certificate_to_json(build_t1(6)))
    (tmp_path / "t6.json").write_text(tour_to_json(6, search_tour(build_digraph(6), 5, budget=100_000)))
    monkeypatch.setattr("whirlknight.geometry._MAX_SIDE", 5)
    assert run(capsys, *argv) == (2, "", "error: board side must be at most 5, got 6\n")


def test_t1_verify_above_the_size_limit_is_an_error_before_the_build(capsys, monkeypatch):
    # build_t1 itself is unbounded (O(n)); cert verify checks the limit before calling it.
    monkeypatch.setattr("whirlknight.geometry._MAX_SIDE", 11)

    def refuse(n):
        raise AssertionError(f"built the t1 certificate for n={n}")

    monkeypatch.setattr("whirlknight.certificates.build_t1", refuse)
    got = run(capsys, "cert", "verify", "--family", "t1", "--n", "14")
    assert got == (2, "", "error: board side must be at most 11, got 14\n")


@pytest.mark.parametrize("family,n", [("t1", 100_004), ("t2", 100_006)])
def test_verify_outside_the_class_names_the_class_at_any_size(family, n, capsys):
    r = FAMILIES[family]
    got = run(capsys, "cert", "verify", "--family", family, "--n", str(n))
    assert got == (2, "", f"error: expected n = {r} (mod 8) with n >= {r}, got {n}\n")


@pytest.mark.parametrize("action", ["build", "verify"])
def test_t2_above_the_size_limit_is_an_error(action, capsys, monkeypatch):
    monkeypatch.setattr("whirlknight.geometry._MAX_SIDE", 11)
    got = run(capsys, "cert", action, "--family", "t2", "--n", "12")
    assert got == (2, "", "error: board side must be at most 11, got 12\n")


class TestRender:
    def test_empty_board(self, capsys):
        code, stdout, _ = run(capsys, "render", "--n", "4")
        assert code == 0 and "+" in stdout

    def test_digraph_file_auto_detect(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        run(capsys, "digraph", "--n", "4", "--out", str(g))
        code, stdout, _ = run(capsys, "render", "--in", str(g), "--format", "svg")
        assert code == 0 and stdout.startswith("<svg")

    def test_cert_file_auto_detect(self, tmp_path, capsys):
        c = tmp_path / "c.json"
        run(capsys, "cert", "build", "--family", "t1", "--n", "14", "--out", str(c))
        code, stdout, _ = run(capsys, "render", "--in", str(c), "--format", "svg",
                              "--out", str(tmp_path / "c.svg"))
        assert code == 0
        assert (tmp_path / "c.svg").read_text().startswith("<svg")

    def test_tour_file(self, tmp_path, capsys):
        t = tmp_path / "t.json"
        run(capsys, "tour", "search", "--n", "3", "--budget", "100", "--out", str(t))
        code, stdout, _ = run(capsys, "render", "--in", str(t))
        assert code == 0 and "0" in stdout

    def test_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render", "--n", "4", "--format", "png"])
        assert exc.value.code == 2

    def test_missing_input(self, capsys):
        code, _, _ = run(capsys, "render")
        assert code == 2

    @pytest.mark.parametrize("doc", ["5", "[\"arcs\"]", "\"cells\"", "null"])
    def test_non_object_file_is_a_data_error(self, doc, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(doc)
        code, _, stderr = run(capsys, "render", "--in", str(path))
        assert code == 2
        assert stderr == "error: cannot identify input file\n"

    @pytest.mark.parametrize("build", [
        ["digraph", "--n", "6"],
        ["cert", "build", "--family", "t1", "--n", "6"],
        ["tour", "search", "--n", "6", "--budget", "200000"],
    ], ids=lambda argv: argv[0])
    def test_in_file_is_parsed_once(self, build, tmp_path, capsys, monkeypatch):
        path = tmp_path / "in.json"
        assert run(capsys, *build, "--out", str(path))[0] == 0
        loads, calls = json.loads, []

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        code, stdout, _ = run(capsys, "render", "--in", str(path))
        assert code == 0 and stdout
        assert len(calls) == 1

    @pytest.mark.parametrize("kind,what", [
        ("digraph", "digraph"), ("cert", "certificate"), ("tour", "tour"),
    ])
    def test_n_contradicting_the_file_is_an_error(self, kind, what, tmp_path, capsys):
        path = tmp_path / f"{kind}.json"
        build = {
            "digraph": ["digraph", "--n", "6"],
            "cert": ["cert", "build", "--family", "t1", "--n", "6"],
            "tour": ["tour", "search", "--n", "6", "--budget", "200000"],
        }[kind]
        assert run(capsys, *build, "--out", str(path))[0] == 0
        code, stdout, stderr = run(capsys, "render", "--in", str(path), "--n", "8")
        assert code == 2 and stdout == ""
        assert stderr == f"error: --n 8 contradicts the {what}'s n=6\n"
        code, stdout, _ = run(capsys, "render", "--in", str(path), "--n", "6")
        assert code == 0 and stdout

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("n,cell", [
        pytest.param(300, [999, 999], id="off the board"),
        pytest.param(300, [-1, 0], id="negative"),
        pytest.param(301, [150, 150], id="odd centre"),
        pytest.param(5, [2, 2], id="small odd centre"),
    ])
    def test_bad_support_rejected_as_cert_verify_rejects_it(self, n, cell, field, tmp_path,
                                                           capsys, monkeypatch):
        def refuse(size):
            raise AssertionError(f"built the n={size} digraph")

        monkeypatch.setattr("whirlknight.digraph.build_digraph", refuse)
        doc = {"n": n, "c": n // 2, "gamma": -1, "alpha": [], "beta": []}
        doc[field] = [[*cell, 1]]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        verified = run(capsys, "cert", "verify", "--family", "file", "--in", str(path))
        message = f"{field} support cell {tuple(cell)} is not a vertex"
        assert verified == (2, "", f"error: {message}\n")
        assert run(capsys, "render", "--in", str(path)) == verified

    def test_byte_stable_across_runs(self, tmp_path, capsys):
        args = ("render", "--n", "6", "--format", "svg")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestRoundTrips:
    def test_digraph_output_reaccepted(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        run(capsys, "digraph", "--n", "6", "--out", str(path))
        code, _, _ = run(capsys, "render", "--in", str(path))
        assert code == 0

    def test_tour_search_output_verifies(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        code, _, _ = run(capsys, "tour", "search", "--n", "6", "--budget", "200000",
                         "--out", str(path))
        if code == 0:
            code, _, _ = run(capsys, "tour", "verify", "--in", str(path))
            assert code == 0

    def test_digraph_out_dash_prints_only_the_json(self, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "digraph", "--n", "4", "--out", "-")
        assert (code, stdout) == (0, digraph_to_json(build_digraph(4)))
        assert stderr == run(capsys, "digraph", "--n", "4")[1]  # the summary line
        path = tmp_path / "g.json"
        path.write_text(stdout)
        assert run(capsys, "render", "--in", str(path))[0] == 0

    def test_tour_search_out_dash_prints_only_the_json(self, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "tour", "search", "--n", "6", "--out", "-")
        assert code == 0 and stderr == run(capsys, "tour", "search", "--n", "6")[1]
        path = tmp_path / "t.json"
        path.write_text(stdout)
        code, stdout, _ = run(capsys, "tour", "verify", "--in", str(path))
        assert code == 0 and stdout.startswith("valid=true n=6 ")

    def test_tour_search_out_dash_reports_not_found_on_stderr(self, capsys):
        argv = ("tour", "search", "--n", "6", "--coil", "3")
        code, stdout, _ = run(capsys, *argv)
        assert code == 1 and stdout.startswith("found=false ")
        assert run(capsys, *argv, "--out", "-") == (1, "", stdout)


class TestRepeatedKeys:
    """A JSON object that repeats a key is malformed: no reader keeps the first or the last value."""

    # Each file's last value is the one its command wrote, so keeping the last would pass it.
    # kind: (the command that writes the file, the text to replace, its replacement, the key, the readers)
    CASES = {
        "certificate": (["cert", "build", "--family", "t1", "--n", "14"],
                        '{"n":14,', '{"n":14,"gamma":5,', "gamma",
                        [["cert", "verify", "--family", "file", "--in"], ["render", "--in"]]),
        "tour": (["tour", "search", "--n", "6", "--coil", "5", "--budget", "100000"],
                 '{"n":6,', '{"n":6,"coil":99,', "coil",
                 [["tour", "verify", "--in"], ["render", "--in"]]),
        "digraph": (["digraph", "--n", "4"], '{"u":', '{"w":1,"u":', "w", [["render", "--in"]]),  # first arc
    }

    @pytest.mark.parametrize("kind", CASES)
    def test_repeated_key_is_an_error(self, kind, tmp_path, capsys):
        build, old, new, key, readers = self.CASES[kind]
        path = tmp_path / f"{kind}.json"
        assert run(capsys, *build, "--out", str(path))[0] == 0
        for argv in readers:
            assert run(capsys, *argv, str(path))[0] == 0
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        for argv in readers:
            assert run(capsys, *argv, str(path)) == (
                2, "", f"error: malformed JSON: an object repeats the key {key!r}\n")

    @pytest.mark.parametrize("text,key", [('{"n":3,"n":3}', "n"), ('[{"a":1},{"b":[{"c":0,"c":0}]}]', "c")])
    @pytest.mark.parametrize("load", [certificate_from_json, digraph_from_json, tour_from_json])
    def test_readers_reject_a_repeat_at_any_depth(self, load, text, key):
        with pytest.raises(ValueError) as exc:
            load(text)
        assert str(exc.value) == f"malformed JSON: an object repeats the key {key!r}"


# Keys of the three file formats, so generated documents reach past the first lookup.
FORMAT_KEYS = ["n", "c", "alpha", "beta", "gamma", "cells", "coil", "vertices", "arcs", "u", "v", "w"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FORMAT_KEYS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=12,
)


class TestLoaderFuzz:
    """Every loader returns or raises ValueError (exit 2), whatever document it reads."""

    @settings(max_examples=100, deadline=None)  # kept small, so the test takes well under 1 s
    @given(st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=8)))
    def test_loaders_raise_only_value_error(self, text):
        for load in (certificate_from_json, tour_from_json, digraph_from_json):
            try:
                load(text)
            except ValueError:
                pass
