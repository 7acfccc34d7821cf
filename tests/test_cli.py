"""CLI behavior: goldens, exit codes, piping, determinism.

Most tests drive main(argv) in process. The subprocess tests start
`python -m blockspectra` on the source tree under test (the `module_launch`
fixture in conftest.py); one more runs the same pipe through the installed
`blockspectra` console script and is skipped where that script is not on PATH.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys

import pytest

from blockspectra import cli, complete_graph, format_edge_list, path_graph, spectral_radius
from blockspectra.cli import main
from blockspectra.families import CAPS, parse_family_spec
from blockspectra.graphs import MAX_ORDER
from blockspectra.spectral import SPECTRAL_KINDS
from blockspectra.verify import PARAMS


# a UTF-16 byte-order mark before an otherwise valid edge list
NOT_UTF8 = b"\xff\xfe3 1\n0 1\n"


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    """Run main in-process; stdin_text, str or bytes, becomes a UTF-8 stdin
    that decodes strictly, as under PYTHONIOENCODING=utf-8:strict."""
    if stdin_text is not None:
        import io

        data = stdin_text.encode() if isinstance(stdin_text, str) else stdin_text
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_cliquepath_header(self, capsys):
        code, out, err = run_cli(capsys, ["gen", "cliquepath:3,3"])
        assert code == 0
        assert out.splitlines()[0] == "5 6"

    def test_path(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "path:4"])
        assert code == 0
        assert out == "4 3\n0 1\n1 2\n2 3\n"

    def test_invalid_size_exits_1(self, capsys):
        code, out, err = run_cli(capsys, ["gen", "cliquepath:1,3"])
        assert code == 1
        assert out == "" and err != ""

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        code, out, _ = run_cli(capsys, ["gen", "broom:5", "--out", str(target)])
        assert code == 0 and out == ""
        assert target.read_text() == format_edge_list(parse_family_spec("broom:5"))

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["gen", "path:3", "--out", str(tmp_path / "no" / "g.txt")]
        )
        assert code == 1 and err != ""


class TestSpectrum:
    def test_k5_adjacency_golden(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["spectrum"],
            stdin_text=format_edge_list(complete_graph(5)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "4.00000000000"
        assert len(lines[1].split()) == 5

    def test_p3_distance_golden(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--matrix", "distance"],
            stdin_text=format_edge_list(path_graph(3)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.splitlines()[0] == "2.73205080757"
        assert float(out.splitlines()[0]) == pytest.approx(1 + math.sqrt(3), abs=1e-10)

    def test_output_is_two_lines_without_verbose(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["spectrum"], stdin_text=format_edge_list(path_graph(5)), monkeypatch=monkeypatch
        )
        assert code == 0
        pair = spectral_radius(path_graph(5), "adjacency")
        vector = " ".join(format(v, "#.12g") for v in pair.vector)
        assert out == f"{pair.value:#.12g}\n{vector}\n"

    def test_verbose_adds_the_solver_line(self, capsys, monkeypatch):
        argv = ["spectrum", "--matrix", "cdistance"]
        text = format_edge_list(path_graph(6))
        _, plain, _ = run_cli(capsys, argv, stdin_text=text, monkeypatch=monkeypatch)
        code, out, _ = run_cli(
            capsys, [*argv, "--verbose"], stdin_text=text, monkeypatch=monkeypatch
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3 and out.startswith(plain)
        pair = spectral_radius(path_graph(6), "complement_distance")
        assert lines[2] == (
            f"method {pair.method} iterations {pair.iterations} "
            f"residual {pair.residual:#.12g}"
        )

    def test_stalled_path_is_finished_by_ritz(self, capsys, monkeypatch):
        # P_120 stalls power iteration; its Perron pair is known in closed form
        _, text, _ = run_cli(capsys, ["gen", "path:120"])
        code, out, _ = run_cli(
            capsys, ["spectrum", "--verbose"], stdin_text=text, monkeypatch=monkeypatch
        )
        assert code == 0
        value, vector, solver = out.splitlines()
        assert solver.split()[:2] == ["method", "ritz"]
        assert abs(float(value) - 2 * math.cos(math.pi / 121)) <= 1e-11
        sines = [math.sin(math.pi * j / 121) for j in range(1, 121)]
        norm = math.sqrt(sum(x * x for x in sines))
        entries = [float(x) for x in vector.split()]
        assert len(entries) == 120
        assert max(abs(x - y / norm) for x, y in zip(entries, sines)) <= 1e-9

    def test_long_path_is_finished_by_lanczos(self, capsys, monkeypatch):
        _, text, _ = run_cli(capsys, ["gen", "path:480"])
        code, out, _ = run_cli(
            capsys, ["spectrum", "--verbose"], stdin_text=text, monkeypatch=monkeypatch
        )
        assert code == 0
        value, _, solver = out.splitlines()
        assert solver.split()[:2] == ["method", "ritz"]
        assert abs(float(value) - 2 * math.cos(math.pi / 481)) <= 1e-11

    def test_unreachable_tolerance_is_a_one_line_error(self, capsys, monkeypatch):
        code, out, err = run_cli(
            capsys,
            ["spectrum", "--tol", "1e-300"],
            stdin_text=format_edge_list(path_graph(5)),
            monkeypatch=monkeypatch,
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_cdistance_of_small_diameter_exits_1(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys,
            ["spectrum", "--matrix", "cdistance"],
            stdin_text=format_edge_list(path_graph(3)),
            monkeypatch=monkeypatch,
        )
        assert code == 1 and "disconnected" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "p5.txt"
        path.write_text(format_edge_list(path_graph(5)))
        code, out, _ = run_cli(capsys, ["spectrum", str(path), "--matrix", "cadjacency"])
        assert code == 0
        ref = spectral_radius(path_graph(5), "complement_adjacency").value
        assert out.splitlines()[0] == format(ref, "#.12g")

    def test_malformed_input_exits_1(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["spectrum"], stdin_text="2 1\n0 5\n", monkeypatch=monkeypatch
        )
        assert code == 1 and err != ""

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["spectrum", "/nonexistent/g.txt"])
        assert code == 1 and err != ""

    def test_non_utf8_file_is_a_one_line_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(NOT_UTF8)
        code, out, err = run_cli(capsys, ["spectrum", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {path} is not UTF-8 text (invalid start byte at byte 0)\n"

    def test_non_utf8_stdin_is_a_one_line_error(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["spectrum"], stdin_text=NOT_UTF8, monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err == "error: stdin is not UTF-8 text (invalid start byte at byte 0)\n"

    @pytest.mark.parametrize("encoding", ["utf-8:strict", "latin-1"])
    def test_non_utf8_stdin_fails_alike_in_any_locale(self, module_launch, encoding):
        env = {**module_launch.env, "PYTHONIOENCODING": encoding}
        run = subprocess.run(
            [*module_launch.argv, "spectrum"], input=NOT_UTF8, capture_output=True, env=env
        )
        assert (run.returncode, run.stdout) == (1, b"")
        assert run.stderr == b"error: stdin is not UTF-8 text (invalid start byte at byte 0)\n"


class TestVerify:
    def test_pass_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "L4.1", "--n", "5"])
        assert code == 0
        report = json.loads(out)
        assert report["theorem"] == "L4.1" and report["violations"] == []

    def test_unknown_id_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "X9.9"])
        assert code == 1 and "known ids" in err

    def test_violation_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "L3.1", "--n", "5", "--d", "3"])
        assert code == 2
        assert json.loads(out)["violations"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "T2.4", "--n", "5", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "theorem,graph,side,lhs,rhs,margin,status"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["verify", "T2.5", "--n", "7", "--out", str(target)]
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["theorem"] == "T2.5"

    def test_jobs_do_not_change_bytes(self, capsys):
        outs = []
        for jobs in ("1", "2"):
            _, out, _ = run_cli(capsys, ["verify", "T2.4", "--n", "6", "--jobs", jobs])
            outs.append("\n".join(l for l in out.splitlines() if '"elapsed"' not in l))
        assert outs[0] == outs[1]

    def test_module_launch_matches_in_process(self, capsys, module_launch):
        argv = ["verify", "T2.4", "--n", "7", "--jobs", "1"]
        code, out, _ = run_cli(capsys, argv)
        proc = module_launch.run(*argv)
        assert proc.returncode == code == 0
        outs = [
            "\n".join(l for l in o.splitlines() if '"elapsed"' not in l)
            for o in (proc.stdout, out)
        ]
        assert outs[0] == outs[1]
        assert module_launch.run("verify", "L3.1", "--n", "6", "--jobs", "1").returncode == 2

    @pytest.mark.parametrize("tid", ["L3.2", "L5.1", "L4.1"])
    def test_connected_cap_names_the_given_order(self, capsys, tid):
        code, out, err = run_cli(capsys, ["verify", tid, "--n", "99"])
        assert (code, out) == (1, "")
        assert err == "error: connected-graph enumeration capped at n = 7, got 99\n"

    def test_alias_accepted(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "T4.4", "--n", "5"])
        assert code == 0 and json.loads(out)["theorem"] == "L4.4"


class TestEnumerate:
    def test_trees_4(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "trees", "--n", "4"])
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2
        from blockspectra import parse_edge_list

        for block in blocks:
            g = parse_edge_list(block)
            assert g.n == 4 and len(g.edges) == 3

    def test_trees_8_count(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "trees", "--n", "8", "--count-only"])
        assert code == 0 and out == "23\n"

    def test_cliquetrees_4_2(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "cliquetrees", "--n", "4", "--s", "2", "--count-only"]
        )
        assert code == 0 and out == "1\n"

    def test_cliquetrees_every_block_count(self, capsys):
        for n, count in [("1", "0"), ("6", "22")]:
            code, out, _ = run_cli(capsys, ["enumerate", "cliquetrees", "--n", n, "--count-only"])
            assert (code, out) == (0, count + "\n")

    def test_connected_5(self, capsys):
        code, out, _ = run_cli(
            capsys, ["enumerate", "connected", "--n", "5", "--count-only"]
        )
        assert code == 0 and out == "21\n"

    def test_s_outside_cliquetrees_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["enumerate", "trees", "--n", "4", "--s", "2"])
        assert code == 1 and "--s only applies" in err

    def test_infeasible_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, ["enumerate", "cliquetrees", "--n", "3", "--s", "5"]
        )
        assert code == 1 and err != ""

    def test_connected_cap_exits_1(self, capsys):
        code, _, err = run_cli(capsys, ["enumerate", "connected", "--n", "8"])
        assert code == 1 and "capped" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "L2.1", "--trials", "-5"],
        ["verify", "L4.1", "--n", "0"],
        ["verify", "T2.4", "--n", "0"],
        ["verify", "L3.2", "--n", "0"],
        ["verify", "L2.3", "--d", "2"],
        ["verify", "L4.2", "--n", "4"],
        ["spectrum", "--tol", "nan"],
        ["spectrum", "--tol", "0"],
        ["spectrum", "--tol", "-0.5"],
        ["spectrum", "--tol", "inf"],
        ["verify", "T2.5", "--s", "3"],
        ["verify", "L4.1", "--trials", "5"],
        ["verify", "L2.1", "--d", "4"],
        ["spectrum", "--tol", "-1e-10"],
        ["enumerate", "cliquetrees", "--n", "0"],
        ["enumerate", "cliquetrees", "--n", "-5"],
        ["verify", "L2.1", "--n", "100000", "--trials", "1"],
        ["verify", "L4.2", "--n", "13"],
        ["gen", "complete:100000"],
        ["gen", "path:100000000"],
        ["gen", "broom:100000000"],
        ["gen", "cliquepath:100000"],
        ["gen", "cliquepath:200000,-199000"],
        ["gen", "cliquestar:2;2;100000"],
    ],
)
def test_bad_parameter_is_a_one_line_error(capsys, monkeypatch, argv):
    if argv[0] == "verify":
        argv = [*argv, "--jobs", "1"]
    code, out, err = run_cli(
        capsys, argv, stdin_text=format_edge_list(path_graph(4)), monkeypatch=monkeypatch
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bad_jobs_is_a_one_line_error(capsys, jobs):
    code, out, err = run_cli(capsys, ["verify", "L2.1", "--trials", "3", "--jobs", jobs])
    assert (code, out) == (1, "")
    assert err == f"error: jobs must be >= 1, got jobs={jobs}\n"


@pytest.mark.parametrize("header", ["30000 0", "1000000000000 0"])
def test_oversized_header_is_a_one_line_error(capsys, monkeypatch, header):
    code, out, err = run_cli(
        capsys, ["spectrum"], stdin_text=header + "\n", monkeypatch=monkeypatch
    )
    n = header.split()[0]
    assert (code, out) == (1, "")
    assert err == f"error: header declares n={n}, above the limit of {MAX_ORDER} vertices\n"


def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.71 GiB")

    monkeypatch.setattr(cli, "spectral_radius", exhausted)
    code, out, err = run_cli(
        capsys, ["spectrum"], stdin_text=format_edge_list(path_graph(4)), monkeypatch=monkeypatch
    )
    assert (code, out, err) == (1, "", "error: out of memory: Unable to allocate 6.71 GiB\n")


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert run_cli(capsys, [])[0] == 1

    def test_bad_choice_exits_1(self, capsys):
        assert run_cli(capsys, ["enumerate", "widgets", "--n", "4"])[0] == 1

    def test_bad_flag_exits_1(self, capsys):
        assert run_cli(capsys, ["verify", "T2.4", "--frobnicate"])[0] == 1


def test_console_script_pipe(module_launch):
    gen = module_launch.run("gen", "complete:5")
    assert gen.returncode == 0
    spec = module_launch.run("spectrum", input=gen.stdout)
    assert spec.returncode == 0
    assert spec.stdout.splitlines()[0] == "4.00000000000"


@pytest.mark.skipif(
    shutil.which("blockspectra") is None, reason="blockspectra console script not on PATH"
)
def test_installed_console_script_pipe():
    gen = subprocess.run(
        ["blockspectra", "gen", "complete:5"], capture_output=True, text=True
    )
    assert gen.returncode == 0
    spec = subprocess.run(
        ["blockspectra", "spectrum"],
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert spec.returncode == 0
    assert spec.stdout.splitlines()[0] == "4.00000000000"


def subcommand_parser(name):
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


class TestDerivedTables:
    def test_verify_parameter_options_are_the_claim_params(self):
        options = [a for a in subcommand_parser("verify")._actions if a.option_strings]
        own = {"help", "format", "out", "jobs"}
        assert [a.dest for a in options if a.dest not in own] == list(PARAMS)
        for a in options:
            if a.dest in PARAMS:
                assert a.option_strings == [f"--{a.dest}"] and a.default is None

    def test_matrix_names_map_one_to_one_onto_the_spectral_kinds(self):
        (matrix,) = [a for a in subcommand_parser("spectrum")._actions if a.dest == "matrix"]
        assert matrix.choices == ["adjacency", "cadjacency", "cdistance", "distance"]
        kinds = [cli._MATRIX_KINDS[name] for name in matrix.choices]
        assert sorted(kinds) == sorted(SPECTRAL_KINDS)


class TestCaps:
    """Every enumeration cap and order message comes from families.CAPS."""

    FAMILIES = {"trees": "tree", "connected": "connected-graph", "cliquetrees": "clique-tree"}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_order_outside_the_cap_exits_1(self, capsys, family):
        name = self.FAMILIES[family]
        cap = CAPS[name]
        for n, message in [
            (0, f"{name} enumeration needs n >= 1, got 0"),
            (cap + 1, f"{name} enumeration capped at n = {cap}, got {cap + 1}"),
        ]:
            code, out, err = run_cli(capsys, ["enumerate", family, "--n", str(n)])
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_clique_move_sampling_shares_the_clique_tree_cap(self, capsys):
        cap = CAPS["clique-tree"]
        code, out, err = run_cli(capsys, ["verify", "L2.1", "--n", str(cap + 1)])
        assert (code, out) == (1, "")
        assert err == f"error: clique-move sampling capped at n = {cap}, got n={cap + 1}\n"
