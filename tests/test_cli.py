"""Golden-file coverage for every CLI path."""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sdncg import (
    GameState,
    Move,
    analysis,
    apply_move,
    cli,
    clique,
    clique_network,
    cycle,
    dump_text,
    errors,
    game,
    hypercube,
    improving_moves,
    parse_text,
    path,
    spanning,
)
from sdncg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def p5(tmp_path):
    f = tmp_path / "p5.txt"
    f.write_text(dump_text(path(5)))
    return str(f)


@pytest.fixture
def p6(tmp_path):
    f = tmp_path / "p6.txt"
    f.write_text(dump_text(path(6)))
    return str(f)


@pytest.fixture
def k4(tmp_path):
    f = tmp_path / "k4.txt"
    f.write_text(dump_text(clique(4)))
    return str(f)


@pytest.fixture
def k6(tmp_path):
    f = tmp_path / "k6.txt"
    f.write_text(dump_text(clique(6)))
    return str(f)


def help_text():
    """``sdncg --help`` and ``sdncg <cmd> --help`` for every subcommand, each
    after a ``$`` line naming it; ``tests/golden/cli-help.txt`` holds it at
    COLUMNS=80 (argparse of Python 3.11). After a deliberate parser change:

        COLUMNS=80 PYTHONPATH=src:tests python -c \\
            "import test_cli; print(test_cli.help_text(), end='')" > tests/golden/cli-help.txt
    """
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parts = [f"$ sdncg --help\n{parser.format_help()}"]
    parts += [f"$ sdncg {name} --help\n{p.format_help()}" for name, p in sub.choices.items()]
    return "".join(parts)


def output_cases():
    """The argument lists ``tests/golden/cli-outputs.txt`` pins: every
    subcommand with a JSON form, in text and in JSON, on K_4, C_5 and P_4
    (``K4``, ``C5``, ``P4`` stand for their files) at three alphas, plus a
    dynamics run cut by its budget and a cycle search found and not found."""
    cases = []
    for graph in ("K4", "C5", "P4"):
        for alpha in ("1/2", "1", "5/2"):
            run_on = ["--input", graph, "--alpha", alpha]
            cases += [
                ["stable", *run_on],
                ["dynamics", *run_on],
                ["dynamics", *run_on, "--policy", "best"],
                ["dynamics", *run_on, "--policy", "random", "--seed", "7"],
                ["opt", *run_on],
                ["atlas", *run_on],
            ]
        cases += [
            ["smrcst", "--input", graph],
            ["smrcst", "--input", graph, "--policy", "first"],
            ["mrcst", "--input", graph],
        ]
    cases += [
        ["dynamics", "--input", "K4", "--alpha", "1/2", "--budget", "1"],
        ["cycle", "--n", "5", "--alpha", "5/2"],
        ["cycle", "--n", "4", "--alpha", "1"],
    ]
    return [form for case in cases for form in (case, case + ["--format", "json"])]


def cli_outputs(tmp):
    """Exit code, stdout and stderr of every ``output_cases`` run, each after
    a ``$`` line naming it, then one ``--output`` run and its file. Graph
    files are written to the directory ``tmp``. After a deliberate output
    change:

        PYTHONPATH=src:tests python -c "import tempfile, test_cli; \\
            print(test_cli.cli_outputs(tempfile.mkdtemp()), end='')" > tests/golden/cli-outputs.txt
    """
    files = {}
    for name, graph in (("K4", clique(4)), ("C5", cycle(5)), ("P4", path(4))):
        files[name] = os.path.join(tmp, f"{name}.txt")
        Path(files[name]).write_text(dump_text(graph))
    target = os.path.join(tmp, "out.json")

    def one(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([files.get(a, a) for a in argv])
        shown = " ".join("OUT" if a == target else a for a in argv)
        return f"$ sdncg {shown}\n[exit {code}]\n{out.getvalue()}{err.getvalue()}"

    parts = [one(argv) for argv in output_cases()]
    parts.append(one(["atlas", "--input", "C5", "--alpha", "1", "--format", "json", "--output", target]))
    parts.append(f"$ cat OUT\n{Path(target).read_text()}")
    return "".join(parts)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_text_golden(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "path", "--n", "4")
        assert code == 0
        assert out == "4 3\n0 1\n1 2\n2 3\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "cycle", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4 and len(payload["edges"]) == 4

    def test_output_file_round_trip(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "gen", "--family", "star-of-cliques", "--n", "14", "--alpha", "2",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        g = parse_text(target.read_text())
        assert g.n == 14 and g.m == 31

    def test_all_families(self, capsys, k4):
        specs = [
            ("path", "--n", "5"),
            ("cycle", "--n", "5"),
            ("star", "--n", "5"),
            ("clique", "--n", "5"),
            ("hypercube", "--d", "3"),
            ("path-clique", "--n", "6", "--k", "3", "--c", "2"),
            ("clique-network", "--input", k4, "--sizes", "2,2,2,2"),
            ("star-of-cliques", "--n", "14", "--alpha", "2"),
            ("hypercube-clique-network", "--n", "12"),
            ("path-of-cliques", "--n", "20", "--d", "4"),
            ("wheel-clique-network", "--n", "10"),
        ]
        for family, *flags in specs:
            code, out, _ = run(capsys, "gen", "--family", family, *flags)
            assert code == 0, family
            parse_text(out)

    def test_oversized_hypercube_exit_2(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("HostGraph built past the dimension cap")

        monkeypatch.setattr(cli.constructions, "HostGraph", refuse)
        code, out, err = run(capsys, "gen", "--family", "hypercube", "--d", "40")
        assert code == 2 and out == ""
        assert "d <= 16" in err

    def test_non_integer_sizes_exit_2(self, capsys, tmp_path):
        base = tmp_path / "p3.txt"
        base.write_text(dump_text(path(3)))
        code, out, err = run(
            capsys, "gen", "--family", "clique-network", "--input", str(base), "--sizes", "a,b,c"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--sizes" in err

    def test_dispatch(self, capsys, tmp_path):
        base = tmp_path / "p3.txt"
        base.write_text(dump_text(path(3)))
        cases = [
            (("path", "--n", "5"), path(5)),
            (("hypercube", "--d", "3"), hypercube(3)),
            (
                ("clique-network", "--input", str(base), "--sizes", "2,2,2"),
                clique_network(path(3), [2, 2, 2]),
            ),
        ]
        for flags, want in cases:
            code, out, _ = run(capsys, "gen", "--family", *flags)
            assert code == 0 and parse_text(out) == want

    def test_every_family_yields_requested_count(self, capsys):
        specs = [
            (7, ("path", "--n", "7")),
            (7, ("cycle", "--n", "7")),
            (7, ("star", "--n", "7")),
            (7, ("clique", "--n", "7")),
            (7, ("path-clique", "--n", "7", "--k", "4", "--c", "3")),
            (14, ("star-of-cliques", "--n", "14", "--alpha", "2")),
            (14, ("hypercube-clique-network", "--n", "14")),
            (18, ("path-of-cliques", "--n", "18", "--d", "4")),
            (14, ("wheel-clique-network", "--n", "14")),
        ]
        for n, flags in specs:
            code, out, _ = run(capsys, "gen", "--family", *flags)
            assert code == 0 and parse_text(out).n == n, flags[0]

    def test_missing_parameter_exit_2(self, capsys):
        # an empty string value is missing, a zero is a value
        for flags, err_want in [
            (("star-of-cliques", "--n", "14"), "family 'star-of-cliques' requires parameter 'alpha'"),
            (("star-of-cliques", "--n", "14", "--alpha", ""), "family 'star-of-cliques' requires parameter 'alpha'"),
            (("clique-network", "--input", "", "--sizes", "2"), "family 'clique-network' requires parameter 'base'"),
            (("path", "--n", "0"), "path needs n >= 2, got 0"),
        ]:
            code, out, err = run(capsys, "gen", "--family", *flags)
            assert code == 2 and out == ""
            assert err == f"error: {err_want}\n"

    def test_path_clique_k0_needs_no_c(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "path-clique", "--n", "6", "--k", "0")
        assert code == 0 and parse_text(out) == path(6)

    def test_flag_of_another_family_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "path", "--n", "4", "--d", "3")
        assert code == 2 and out == ""
        assert err == "error: family 'path' does not take --d\n"

    def test_unread_value_refused_unparsed(self, capsys):
        # refused for the flag, not for a value the family would never read
        code, out, err = run(capsys, "gen", "--family", "path", "--n", "4", "--sizes", "x")
        assert code == 2 and out == ""
        assert err == "error: family 'path' does not take --sizes\n"
        code, out, err = run(capsys, "gen", "--family", "star", "--n", "4", "--input", "missing.txt")
        assert code == 2 and err == "error: family 'star' does not take --input\n"

    def test_unknown_family_exit_2(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "moebius", "--n", "8")
        assert code == 2 and out == "" and "invalid choice" in err

    def test_infeasible_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "star-of-cliques", "--n", "5", "--alpha", "9")
        assert code == 2
        assert "error" in err


class TestSw:
    def test_p5_golden(self, capsys, p5):
        code, out, _ = run(capsys, "sw", "--alpha", "1", "--input", p5)
        assert code == 0 and out == "48\n"

    def test_fractional(self, capsys, p5):
        code, out, _ = run(capsys, "sw", "--alpha", "1/2", "--input", p5)
        assert code == 0 and out == "44\n"


class TestStable:
    def test_p6_golden(self, capsys, p6):
        code, out, _ = run(capsys, "stable", "--alpha", "5/2", "--input", p6)
        assert code == 0 and out == "stable\n"

    def test_unstable_and_json(self, capsys, k4):
        code, out, _ = run(capsys, "stable", "--alpha", "1/2", "--input", k4)
        assert code == 0 and out == "unstable\n"
        code, out, _ = run(capsys, "stable", "--alpha", "1/2", "--input", k4, "--format", "json")
        payload = json.loads(out)
        assert payload["stable"] is False
        assert payload["witnesses"]

    def test_decimal_alpha_rejected(self, capsys, k4):
        code, _, err = run(capsys, "stable", "--alpha", "0.5", "--input", k4)
        assert code == 2 and "exact rational" in err

    @pytest.mark.parametrize("alpha", ["\u0663", "1_0"], ids=["arabic-indic-3", "underscore"])
    def test_alpha_beyond_ascii_digits_exit_2(self, capsys, k4, alpha):
        # int() would read these as 3 and 10
        code, out, err = run(capsys, "sw", "--alpha", alpha, "--input", k4)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse alpha '{alpha}': digits must be ASCII 0-9, with no '_'\n"


class TestDynamics:
    def test_first_policy_golden(self, capsys, k4):
        code, out, _ = run(capsys, "dynamics", "--alpha", "1/2", "--input", k4)
        assert code == 0
        assert out == "terminal: stable\nsteps: 3\n"

    def test_random_requires_seed(self, capsys, k4):
        code, _, err = run(capsys, "dynamics", "--alpha", "1/2", "--input", k4, "--policy", "random")
        assert code == 2 and "seed" in err

    def test_random_prints_seed_header(self, capsys, k4):
        code, out, _ = run(
            capsys, "dynamics", "--alpha", "1/2", "--input", k4, "--policy", "random", "--seed", "7"
        )
        assert code == 0
        assert out.startswith("# seed: 7\n")

    def test_cycle_outcome_text(self, capsys, monkeypatch, k4):
        # a two-state stub of the move scan: edge (0, 1) out, then back in
        def toggle_first_edge(state, p, q, limit=None):
            kind = game.REMOVE if state.mask & 1 else game.ADD
            return ((Move(kind, 0, 1), state.mask ^ 1),)

        monkeypatch.setattr(game, "_improving_arcs", toggle_first_edge)
        code, out, _ = run(capsys, "dynamics", "--alpha", "1/2", "--input", k4)
        assert code == 0
        assert out == "terminal: cycle\nsteps: 2\ncycle_start: 0\n"

    def test_json_trajectory(self, capsys, k4):
        code, out, _ = run(capsys, "dynamics", "--alpha", "1/2", "--input", k4, "--format", "json")
        payload = json.loads(out)
        assert payload["terminal"] == "stable"
        assert len(payload["moves"]) == payload["steps"] == 3


class TestTrees:
    def test_smrcst_text_is_parseable_tree(self, capsys, k6):
        code, out, _ = run(capsys, "smrcst", "--input", k6)
        assert code == 0
        g = parse_text(out)
        assert g.n == 6 and g.m == 5

    def test_smrcst_json(self, capsys, k6):
        code, out, _ = run(capsys, "smrcst", "--input", k6, "--format", "json", "--policy", "first")
        payload = json.loads(out)
        assert payload["routing_cost"] == 70

    def test_mrcst(self, capsys, k4):
        code, out, _ = run(capsys, "mrcst", "--input", k4, "--format", "json")
        payload = json.loads(out)
        assert payload["routing_cost"] == 20

    def test_mrcst_on_a_deep_path(self, capsys, tmp_path):
        # the path's only tree sits 1,499 edges deep in the enumeration
        f = tmp_path / "p1500.txt"
        f.write_text(dump_text(path(1500)))
        start = time.perf_counter()
        code, out, err = run(capsys, "mrcst", "--input", str(f))
        assert code == 0 and err == ""
        assert parse_text(out) == path(1500)
        assert time.perf_counter() - start < 5


class TestOpt:
    def test_text(self, capsys, k4):
        code, out, _ = run(capsys, "opt", "--alpha", "1", "--input", k4)
        assert code == 0 and out == "26\n"

    def test_json(self, capsys, k4):
        code, out, _ = run(capsys, "opt", "--alpha", "1", "--input", k4, "--format", "json")
        payload = json.loads(out)
        assert payload["welfare"] == "26" and payload["optima"] == 12

    def test_budget_exceeded_exit_1(self, capsys, k6):
        code, _, err = run(capsys, "opt", "--alpha", "1", "--input", k6, "--budget", "16")
        assert code == 1 and "budget" in err


class TestAtlas:
    def test_text_golden(self, capsys, k4):
        code, out, _ = run(capsys, "atlas", "--alpha", "1/2", "--input", k4)
        assert code == 0
        assert out == "stable_count: 16\nsw_worst_stable: 21\nsw_best_stable: 23\n"

    def test_json(self, capsys, k4):
        code, out, _ = run(capsys, "atlas", "--alpha", "3", "--input", k4, "--format", "json")
        payload = json.loads(out)
        assert payload["stable_count"] == 1


class TestPoa:
    def test_k6_golden(self, capsys, k6):
        code, out, _ = run(capsys, "poa", "--alpha", "1", "--input", k6)
        assert code == 0 and out == "4/3\n"


class TestCycle:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "cycle", "--n", "5", "--alpha", "5/2")
        assert code == 0
        assert out.splitlines()[0] == "cycle: found"

    def test_text_output_replays(self, capsys):
        # the start line and the cycle's moves are enough to check it alone
        code, out, _ = run(capsys, "cycle", "--n", "5", "--alpha", "5/2")
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        moves = [line.split() for line in out.splitlines() if ": " not in line]
        assert len(moves) == int(fields["length"]) > 0
        edges = [tuple(map(int, e.split("-"))) for e in fields["start"].split()]
        start = GameState(clique(5), edges)
        state = start
        for kind, u, v in moves:
            mv = Move(kind, int(u), int(v))
            assert mv in improving_moves(state, Fraction(5, 2))
            state = apply_move(state, mv)
        assert state == start

    def test_seed_ignored(self, capsys):
        plain = run(capsys, "cycle", "--n", "5", "--alpha", "5/2")
        seeded = run(capsys, "cycle", "--n", "5", "--alpha", "5/2", "--seed", "7")
        assert plain == seeded

    def test_not_found(self, capsys):
        # a search cut short by its budget proves nothing and says so
        code, out, err = run(capsys, "cycle", "--n", "4", "--alpha", "1/2", "--budget", "30")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "budget 30" in err

    def test_budget_exhausted_exit_1(self, capsys):
        # K_5 has an improving cycle at 5/2, but not within 100 units
        code, out, err = run(capsys, "cycle", "--n", "5", "--alpha", "5/2", "--budget", "100")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "budget 100" in err

    def test_not_found_is_proof(self, capsys):
        code, out, _ = run(capsys, "cycle", "--n", "5", "--alpha", "3")
        assert code == 0 and out == "cycle: not-found\n"
        code, out, _ = run(capsys, "cycle", "--n", "5", "--alpha", "3", "--format", "json")
        assert code == 0 and json.loads(out) == {"found": False}

    def test_negative_budget_refused(self, capsys):
        code, out, err = run(capsys, "cycle", "--n", "5", "--alpha", "5/2", "--budget", "-5")
        assert code == 2 and out == "" and "budget" in err

    def test_zero_budget_not_found(self, capsys):
        code, out, err = run(capsys, "cycle", "--n", "5", "--alpha", "5/2", "--budget", "0")
        assert code == 1 and out == "" and "budget 0" in err


class TestSweep:
    def test_hosts_csv(self, capsys, k4, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--alpha", "1/2,2", "--input", k4, "--output", str(out_file),
            "--budget", "256",
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("n,m,alpha_num,alpha_den,sw_opt")
        assert len(lines) == 3

    def test_random_mode_seed_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--seed", "5", "--count", "2",
            "--n-min", "4", "--n-max", "5", "--budget", "4096",
        )
        assert code == 0
        assert "# seed: 5" in err
        assert out.splitlines()[0].startswith("n,m,")

    def test_workers_byte_identical(self, capsys, k4, p5, p6, tmp_path):
        outs = []
        for workers in ("1", "2"):
            f = tmp_path / f"w{workers}.csv"
            code, _, _ = run(
                capsys, "sweep", "--alpha", "1/2,1,2", "--input", k4, "--input", p5,
                "--input", p6, "--workers", workers, "--output", str(f), "--budget", "256",
            )
            assert code == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1]
        # host-major rows, alphas in the given order within each host
        rows = [line.split(",")[:4] for line in outs[0].decode().splitlines()[1:]]
        assert rows == [
            [n, m, num, den]
            for n, m in (("4", "6"), ("5", "4"), ("6", "5"))
            for num, den in (("1", "2"), ("1", "1"), ("2", "1"))
        ]

    def test_one_census_per_host(self, capsys, monkeypatch, k4):
        built = []
        build = analysis.host_census

        def counted(host, budget):
            built.append(host)
            return build(host, budget)

        monkeypatch.setattr(analysis, "host_census", counted)
        code, out, _ = run(capsys, "sweep", "--alpha", "1/2,1,2", "--input", k4, "--workers", "1")
        assert code == 0 and len(out.splitlines()) == 4
        assert built == [clique(4)]

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
    def test_workers_out_of_range_rejected_first(self, capsys, monkeypatch, k4, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("reached past the --workers check")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(cli.graphio, "load_graph", refuse)
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--input", k4, "--workers", str(workers)
        )
        assert code == 2 and out == ""
        assert "--workers" in err

    def test_over_budget_host_rejected_before_pool(self, capsys, monkeypatch, k4, k6):
        # K_6's 2^15 subsets are refused before a census is built or a pool started
        def refuse(*args, **kwargs):
            raise AssertionError("reached past the budget check")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(analysis, "host_census", refuse)
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--input", k4, "--input", k6,
            "--workers", "2", "--budget", "100",
        )
        assert code == 1 and out == ""
        assert err == "error: 2^15 subsets exceed budget 100\n"

    def test_import_leaves_multiprocessing_out(self):
        # only sweep --workers > 1 starts a pool, and only it imports one
        code = "import sys, sdncg.cli; print('multiprocessing' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")

    def test_edge_cap_below_every_host_exit_2(self):
        # every host on 4 or more nodes has at least 3 edges: resampling
        # could never end, so this runs in a child under a timeout
        entry = "import sys; from sdncg.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["sweep", "--alpha", "1", "--seed", "1", "--n-min", "4", "--max-edges", "2"]
        proc = subprocess.run(
            [sys.executable, "-c", entry, *argv],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "at most 2 edges" in proc.stderr

    def test_tree_only_edge_cap_fails_fast(self, capsys):
        # on 20 nodes only a tree meets a 19-edge cap, and a draw is a tree
        # with probability below 10^-7: the corpus gives up after a run of
        # rejections
        start = time.perf_counter()
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--seed", "1", "--n-min", "20", "--n-max", "20",
            "--max-edges", "19", "--count", "1",
        )
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error:") and "more than 19 edges" in err

    @pytest.mark.parametrize("count", [-2, 0])
    def test_count_below_one_rejected_before_drawing(self, capsys, monkeypatch, count):
        def refuse(*args, **kwargs):
            raise AssertionError("a host was drawn")

        monkeypatch.setattr(analysis, "random_connected_host", refuse)
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--seed", "1", "--count", str(count)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--count" in err

    def test_empty_node_range_exit_2(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--alpha", "1", "--seed", "1", "--n-min", "6", "--n-max", "4"
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "node range" in err

    def test_random_mode_requires_seed(self, capsys):
        code, _, err = run(capsys, "sweep", "--alpha", "1")
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize("mode", ["input", "random"])
    def test_negative_budget_rejected_first(self, capsys, monkeypatch, k4, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("reached past the --budget check")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(cli.graphio, "load_graph", refuse)
        monkeypatch.setattr(analysis, "random_connected_host", refuse)
        source = ["--input", k4] if mode == "input" else ["--seed", "1"]
        code, out, err = run(capsys, "sweep", "--alpha", "1", *source, "--budget", "-1")
        assert code == 2 and out == ""
        assert err == "error: --budget must be nonnegative, got -1\n"


class TestCampaign:
    def test_single_suite(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "campaign", "--suite", "construction-stability", "--output", str(report)
        )
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())
        payload = json.loads(report.read_text())
        assert payload["suite"] == "construction-stability"
        assert payload["passed"] is True

    def test_seed_zero_matches_golden(self, capsys, tmp_path):
        # the exactness contract: a change to any claim shows here
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "campaign", "--suite", "all", "--seed", "0", "--output", str(report)
        )
        assert code == 0
        assert out.encode() == (GOLDEN / "campaign-seed0.txt").read_bytes()
        assert report.read_bytes() == (GOLDEN / "campaign-seed0.json").read_bytes()

    def test_sweep_seed_three_matches_golden(self, capsys):
        # the exactness contract covers the sweep CSV too: 25 random hosts
        # at seven alphas, every census read
        code, out, _ = run(
            capsys, "sweep", "--seed", "3", "--count", "25", "--alpha", "1/4,1/2,1,6/5,2,5/2,10"
        )
        assert code == 0
        assert out.encode() == (GOLDEN / "sweep-seed3.csv").read_bytes()

    def test_unknown_suite_exit_2(self, capsys):
        code, _, err = run(capsys, "campaign", "--suite", "bogus")
        assert code == 2 and "unknown suite" in err


class TestOutputs:
    def test_every_output_matches_golden(self, tmp_path):
        # every subcommand's text and JSON form, byte for byte
        assert cli_outputs(str(tmp_path)).encode() == (GOLDEN / "cli-outputs.txt").read_bytes()


class TestHelp:
    def test_help_matches_golden(self, monkeypatch):
        # every flag, choice list and default the parser shows, byte for byte
        monkeypatch.setenv("COLUMNS", "80")
        assert help_text().encode() == (GOLDEN / "cli-help.txt").read_bytes()


class TestErrors:
    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0 1\nx y\n")
        code, _, err = run(capsys, "sw", "--alpha", "1", "--input", str(bad))
        assert code == 2 and "line 3" in err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("empty.txt", "", "line 1: expected header 'n m'"),
            ("head.txt", "three 2\n0 1\n1 2\n", "line 1: non-integer header 'three 2'"),
            ("fields.txt", "3 2\n0 1 2\n1 2\n", "line 2: expected 'u v', got '0 1 2'"),
            ("bad.json", "n = 4", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
            (
                "cut.json",
                '{"n": 4, "edges": [[0, 1], [0, 2], [1, 2]]}',
                "invalid graph: host graph must be connected",
            ),
            ("negative.txt", "10 -1\n0 1\n", "line 1: negative count in header '10 -1'"),
            # a UTF-16 byte-order mark: not UTF-8, in either format
            (
                "utf16.txt",
                b"\xff\xfe3\x00 \x002\x00",
                "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
            (
                "utf16.json",
                b"\xff\xfe{\x00}\x00",
                "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
        ],
    )
    def test_unreadable_graph_exit_2(self, capsys, tmp_path, name, text, message):
        f = tmp_path / name
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run(capsys, "sw", "--alpha", "1", "--input", str(f))
        assert (code, out, err) == (2, "", f"error: {message.replace('{path}', str(f))}\n")

    def test_undecodable_byte_past_the_first_chunk_exit_2(self, capsys, tmp_path):
        # the file is read as it is parsed: the bad byte comes after three
        # good lines and more than one read of the file
        f = tmp_path / "late.txt"
        f.write_bytes(b"3 2\n0 1\n1 2\n" + b"\n" * 20_000 + b"\xff\n")
        code, out, err = run(capsys, "sw", "--alpha", "1", "--input", str(f))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sw", "--alpha", "1", "--input", "K4"],
            ["gen", "--family", "path", "--n", "4"],
            ["campaign", "--suite", "closed-forms"],
            ["sweep", "--alpha", "1", "--input", "K4"],
        ],
        ids=["sw", "gen", "campaign", "sweep"],
    )
    def test_unwritable_output_exit_2(self, capsys, monkeypatch, tmp_path, k4, argv):
        # refused before any work: no suite is run and no host is read
        def refuse(*args, **kwargs):
            raise AssertionError("worked before the output was checked")

        monkeypatch.setattr(analysis, "theorem_campaign", refuse)
        monkeypatch.setattr(cli.graphio, "load_graph", refuse)
        argv = [k4 if a == "K4" else a for a in argv]
        for target in (tmp_path / "absent" / "out.txt", tmp_path):
            code, out, err = run(capsys, *argv, "--output", str(target))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
        assert [f.name for f in tmp_path.iterdir()] == ["k4.txt"]

    def test_failed_run_leaves_a_kept_output_as_it_was(self, capsys, tmp_path, k4):
        # the writability check appends nothing, and a kept file is
        # overwritten only by a run that succeeds
        kept = tmp_path / "kept.txt"
        kept.write_text("old\n")
        code, _, _ = run(capsys, "opt", "--alpha", "1", "--input", k4, "--budget", "0", "--output", str(kept))
        assert code == 1 and kept.read_text() == "old\n"
        code, _, _ = run(capsys, "sw", "--alpha", "1", "--input", k4, "--output", str(kept))
        assert code == 0 and kept.read_text() == "24\n"

    @pytest.mark.parametrize(
        "name, text, n, m",
        [
            ("nodes.txt", "65537 3\n", 65537, 3),
            ("edges.txt", "10 524289\n", 10, 524289),
            ("nodes.json", '{"n": 65537, "edges": []}', 65537, 0),
        ],
    )
    def test_header_over_the_cap_exit_2(self, capsys, tmp_path, name, text, n, m):
        # refused from the header alone, before any edge line is read
        f = tmp_path / name
        f.write_text(text)
        code, out, err = run(capsys, "sw", "--alpha", "1", "--input", str(f))
        message = f"invalid graph: {n} nodes and {m} edges are above the cap of 65536 nodes and 524288 edges"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_graph_over_the_cap_exit_2_in_bounded_memory(self, tmp_path):
        # a child process with 1 GiB of address space: the masks of a
        # 200,000-node path would take about 2.5 GB, so the host must be
        # refused before they are built
        n = 200_000
        text = tmp_path / "long.txt"
        text.write_text(f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1)))
        js = tmp_path / "long.json"
        js.write_text(json.dumps({"n": n, "edges": [[v, v + 1] for v in range(n - 1)]}))
        script = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from sdncg.cli import main
for f in sys.argv[2:]:
    try:
        print(main(["sw", "--alpha", "1", "--input", f]))
    except MemoryError:
        print("MemoryError")
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SRC), str(text), str(js)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.stdout.split() == ["2", "2"], proc.stdout + proc.stderr
        message = f"error: invalid graph: {n} nodes and {n - 1} edges are above the cap of 65536 nodes and 524288 edges\n"
        assert proc.stderr == 2 * message

    def test_unparsable_alpha_exit_2(self, capsys, k4):
        code, out, err = run(capsys, "sw", "--alpha", "abc", "--input", k4)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse alpha 'abc': ")

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "sw", "--alpha", "1", "--input", "/nonexistent.txt")
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        assert main(["sw"]) == 2  # missing required flags

    @pytest.mark.parametrize("command", ["sw", "poa"])
    def test_format_refused_without_json_form(self, capsys, k4, command):
        # sw and poa print one value and have no JSON form to choose
        for fmt in ("json", "text"):
            code, out, err = run(capsys, command, "--alpha", "1", "--input", k4, "--format", fmt)
            assert code == 2 and out == ""
            assert "unrecognized arguments: --format" in err

    @pytest.mark.parametrize(
        "exc", [errors.SdncgError, *errors.SdncgError.__subclasses__()], ids=lambda c: c.__name__
    )
    def test_library_error_exit_code(self, capsys, monkeypatch, k4, exc):
        # usage errors exit with 2, every other library error with 1
        usage = {errors.GraphParseError, errors.ParameterError, errors.StructureError}

        def fail(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr(game, "social_welfare", fail)
        code, out, err = run(capsys, "sw", "--alpha", "1", "--input", k4)
        assert (code, out, err) == (2 if exc in usage else 1, "", "error: boom\n")

    @pytest.mark.parametrize(
        "command", ["opt", "atlas", "poa", "mrcst", "dynamics", "cycle", "sweep"]
    )
    def test_negative_budget_exit_2(self, capsys, monkeypatch, k4, command):
        # every budgeted command: a usage error with one text, refused before
        # any subset, tree, move or search state is counted (sweep's own
        # order: TestSweep.test_negative_budget_rejected_first)
        def refuse(*args, **kwargs):
            raise AssertionError("counted past the budget check")

        monkeypatch.setattr(analysis, "_census_sums", refuse)
        monkeypatch.setattr(spanning, "_spanning_tree_count", refuse)
        monkeypatch.setattr(game, "_improving_arcs", refuse)
        monkeypatch.setattr(analysis, "_improving_arcs", refuse)
        args = {
            "mrcst": ["--input", k4],
            "cycle": ["--n", "4", "--alpha", "1"],
        }.get(command, ["--alpha", "1", "--input", k4])
        code, out, err = run(capsys, command, *args, "--budget", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "budget must be nonnegative, got -1" in err

    @pytest.mark.parametrize("command", ["opt", "atlas", "poa", "sweep", "mrcst"])
    def test_zero_budget_exit_1(self, capsys, k4, command):
        alpha = [] if command == "mrcst" else ["--alpha", "1"]
        code, out, err = run(capsys, command, *alpha, "--input", k4, "--budget", "0")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "budget 0" in err

    def test_byte_identical_reruns(self, capsys, k6):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "poa", "--alpha", "1", "--input", k6)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
