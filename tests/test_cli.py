"""Command-line behavior: subcommands, formats, exit codes, piping."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vsep.cli import _build_config, build_parser, main
from vsep.graphs import parse_graph, path_graph, render_graph, grid_graph
from vsep.solver import SolverConfig

P5_TEXT = render_graph(path_graph(5))
K4_TEXT = "p 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"


def run_cli(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_path(capsys):
    code, out, _ = run_cli(["gen", "path", "5"], capsys)
    assert code == 0
    assert parse_graph(out) == path_graph(5)


def test_gen_grid_and_blobs(capsys):
    code, out, _ = run_cli(["gen", "grid", "3", "4"], capsys)
    assert code == 0
    g = parse_graph(out)
    assert g.n == 12 and g.m == 17
    code, out, _ = run_cli(["gen", "two_blobs", "5", "5", "1"], capsys)
    assert code == 0
    assert parse_graph(out).n == 9


def test_gen_gnp_deterministic(capsys):
    code, out1, _ = run_cli(["gen", "gnp", "10", "0.3", "--seed", "5"], capsys)
    assert code == 0
    _, out2, _ = run_cli(["gen", "gnp", "10", "0.3", "--seed", "5"], capsys)
    assert out1 == out2
    _, out3, _ = run_cli(["gen", "gnp", "10", "0.3", "--seed", "6"], capsys)
    assert out1 != out3


def test_gen_random_weights(capsys):
    code, out, _ = run_cli(
        ["gen", "path", "6", "--max-weight", "9", "--seed", "2"], capsys
    )
    assert code == 0
    g = parse_graph(out)
    assert all(1 <= w <= 9 for w in g.weights)
    assert any(w > 1 for w in g.weights)


def test_gen_errors(capsys):
    code, _, err = run_cli(["gen", "path"], capsys)  # missing n
    assert code == 3
    assert "input error" in err
    code, _, err = run_cli(
        ["gen", "path", "4", "--max-weight", "100000"], capsys
    )
    assert code == 3  # above max(n,4)^3 = 64


# ---------------------------------------------------------------------------
# solve and validate
# ---------------------------------------------------------------------------

def test_solve_text_pipes_into_validate(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "p5.txt"
    graph_file.write_text(P5_TEXT)
    code, out, _ = run_cli(["solve", "--input", str(graph_file)], capsys)
    assert code == 0
    assert "cost: 1" in out
    assert "via: brute" in out
    assert "oracle_cost: -" in out
    assert "ratio_vs_brute: 1" in out
    assert "A: " in out and "C: " in out

    code, vout, _ = run_cli(
        ["validate", "--graph", str(graph_file)],
        capsys, monkeypatch, stdin=out,
    )
    assert code == 0
    assert vout.strip() == "ok"


def test_solve_json_byte_identical(tmp_path, capsys):
    # grid 4x4 embeds exactly; grid 9x9 (n = 81 > DENSE_CAP) is sketched
    trees = {}
    for rows in (4, 9):
        graph_file = tmp_path / f"grid{rows}.txt"
        graph_file.write_text(render_graph(grid_graph(rows, rows)))
        argv = [
            "solve", "--input", str(graph_file), "--format", "json",
            "--no-brute-bypass", "--seed", "11",
        ]
        code, out1, _ = run_cli(argv, capsys)
        assert code == 0
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2
        trees[rows] = json.loads(out1)
    tree = trees[4]
    assert tree["n"] == 16 and tree["m"] == 24
    assert tree["c"] == "1/3"
    assert tree["separator_via"] == "oracle"
    assert tree["separator"]["cost"] == 1
    assert tree["counters"]["mmwu_runs"] == 5
    assert trees[9]["n"] == 81 and trees[9]["m"] == 144
    assert trees[9]["separator_via"] == "oracle"


def test_solve_text_prints_the_notes(tmp_path, capsys):
    # a t_cap below the number of objective guesses leaves the top ones
    # untried, and text output says so on a note: line
    graph_file = tmp_path / "grid6.txt"
    graph_file.write_text(render_graph(grid_graph(6, 6)))
    code, out, _ = run_cli(["solve", "--input", str(graph_file), "--t-cap", "2"],
                           capsys)
    assert code == 0
    notes = [line for line in out.splitlines() if line.startswith("note: ")]
    assert notes == [
        "note: t_cap=2 is below the 6 guesses up to 36: alpha > 2 not tried"
    ]


def test_solve_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(["solve"], capsys, monkeypatch, stdin=P5_TEXT)
    assert code == 0
    assert "cost: 1" in out


def test_solve_solver_flags(tmp_path, capsys):
    graph_file = tmp_path / "p5.txt"
    graph_file.write_text(P5_TEXT)
    code, out, _ = run_cli(
        [
            "solve", "--input", str(graph_file), "--no-brute-bypass",
            "--c-prime", "1/4", "--epsilon", "0.75", "--seed", "3",
        ],
        capsys,
    )
    assert code == 0
    assert "via: oracle" in out
    assert "oracle_cost: 1" in out
    assert "epsilon: 0.75" in out


# the solve flag that sets each SolverConfig field to a non-default value
SOLVE_FLAGS = {
    "c": ["--c", "1/4"],
    "epsilon": ["--epsilon", "0.75"],
    "c_prime": ["--c-prime", "1/40"],
    "sigma": ["--sigma", "0.1"],
    "t_cap": ["--t-cap", "7"],
    "brute_cap": ["--brute-cap", "3"],
    "brute_bypass": ["--no-brute-bypass"],
    "replication": ["--replication", "2"],
}


def test_every_config_field_has_a_solve_flag():
    # a knob no caller can set is a configuration nothing covers;
    # certification_tol alone is read, not set, by the benchmark
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == set(SOLVE_FLAGS) | {"certification_tol"}
    default = SolverConfig()
    parser = build_parser()
    for name, argv in SOLVE_FLAGS.items():
        config = _build_config(parser.parse_args(["solve", *argv]))
        assert getattr(config, name) != getattr(default, name), name


def test_validate_rejects_tampered(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "p4.txt"
    graph_file.write_text(render_graph(path_graph(4)))
    tampered = "A: 0 1\nB: 2 3\nC:\n"
    code, out, _ = run_cli(
        ["validate", "--graph", str(graph_file)],
        capsys, monkeypatch, stdin=tampered,
    )
    assert code == 1
    assert out.strip() == "reject: edge (1, 2) crosses A and B"


def test_validate_bad_vertex_id_exits_three(tmp_path, capsys, monkeypatch):
    # an id outside [0, n) or repeated within a side is bad input, named
    # with its line, not a traceback (exit 1, the reject code) or a cost
    # mismatch
    graph_file = tmp_path / "p6.txt"
    graph_file.write_text(render_graph(path_graph(6)))
    for c_line, message in (
        ("C: 3 99", "line 3: vertex 99 out of range [0, 6)"),
        ("C: 3 -1", "line 3: vertex -1 out of range [0, 6)"),
        ("C: 3 3", "line 3: vertex 3 repeated in side 'C'"),
    ):
        code, out, err = run_cli(
            ["validate", "--graph", str(graph_file)],
            capsys, monkeypatch, stdin=f"A: 0 1 2\nB: 4 5\n{c_line}\n",
        )
        assert code == 3, c_line
        assert out == "" and err == f"input error: {message}\n", c_line


def test_validate_balance_priority(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "p5.txt"
    graph_file.write_text(P5_TEXT)
    # 1|3 split: fine at the embedded balance 1/3 (cap floor(10/3) = 3),
    # rejected once --c 0.45 shrinks the cap to floor(2.75) = 2
    block = "balance: 1/3\nA: 0\nB: 2 3 4\nC: 1\n"
    code, out, _ = run_cli(
        ["validate", "--graph", str(graph_file)],
        capsys, monkeypatch, stdin=block,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["validate", "--graph", str(graph_file), "--c", "0.45"],
        capsys, monkeypatch, stdin=block,
    )
    assert code == 1
    assert "balance" in out


def test_validate_json(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "p5.txt"
    graph_file.write_text(P5_TEXT)
    code, out, _ = run_cli(
        ["validate", "--graph", str(graph_file), "--format", "json"],
        capsys, monkeypatch, stdin="A: 0 1\nB: 3 4\nC: 2\n",
    )
    assert code == 0
    tree = json.loads(out)
    assert tree == {"ok": True, "message": "ok", "balance": "1/3"}


# ---------------------------------------------------------------------------
# brute
# ---------------------------------------------------------------------------

def test_brute_k4(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["brute", "--c", "0.3333"], capsys, monkeypatch, stdin=K4_TEXT
    )
    assert code == 0
    assert out.splitlines()[0] == "opt 2"
    assert "C: " in out


def test_brute_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["brute", "--format", "json"], capsys, monkeypatch, stdin=K4_TEXT
    )
    assert code == 0
    tree = json.loads(out)
    assert tree["opt"] == 2
    assert len(tree["c"]) == 2


def test_brute_cap_exceeded(capsys, monkeypatch):
    big = render_graph(path_graph(15))
    code, _, err = run_cli(
        ["brute", "--cap", "14"], capsys, monkeypatch, stdin=big
    )
    assert code == 3
    assert "input error" in err


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

FLOW_TEXT = "n 4\na 0 1 5\na 1 3 5\na 0 2 3\na 2 3 3\n"


def test_flow_text(capsys, monkeypatch):
    code, out, _ = run_cli(["flow"], capsys, monkeypatch, stdin=FLOW_TEXT)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value 8"
    assert lines[1] == "cut_capacity 8"
    assert "path 0->1->3 x5" in lines
    assert "path 0->2->3 x3" in lines


def test_flow_json_and_custom_terminals(capsys, monkeypatch):
    text = "n 3\ns 2\nt 0\na 2 1 4\na 1 0 2\n"
    code, out, _ = run_cli(
        ["flow", "--format", "json"], capsys, monkeypatch, stdin=text
    )
    assert code == 0
    tree = json.loads(out)
    assert tree["value"] == 2
    assert tree["paths"] == [{"nodes": [2, 1, 0], "amount": 2}]


def test_flow_bad_input(capsys, monkeypatch):
    code, _, err = run_cli(["flow"], capsys, monkeypatch, stdin="a 0 1 5\n")
    assert code == 3
    code, _, err = run_cli(
        ["flow"], capsys, monkeypatch, stdin="n 2\nz 0 1\n"
    )
    assert code == 3


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_text_and_json(tmp_path, capsys):
    graph_file = tmp_path / "p5.txt"
    graph_file.write_text(P5_TEXT)
    code, out, _ = run_cli(
        ["bench", "--input", str(graph_file), "--epsilons", "0.5,1.0"],
        capsys,
    )
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 2
    assert all("wall_ms=" in row and "kappa=" in row for row in rows)

    argv = [
        "bench", "--input", str(graph_file), "--epsilons", "0.5,1.0",
        "--format", "json",
    ]
    code, out1, _ = run_cli(argv, capsys)
    assert code == 0
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2  # wall time kept out of structured output
    tree = json.loads(out1)
    assert len(tree["rows"]) == 2
    assert "wall_ms" not in tree["rows"][0]
    assert "cost" in tree["rows"][0]


def test_bench_oracle_cost_matches_solve(tmp_path, capsys):
    # cost is the returned separator, often the sweep cut whatever epsilon;
    # oracle_cost is the paper pipeline's, as solve reports it
    graph_file = tmp_path / "grid6.txt"
    graph_file.write_text(render_graph(grid_graph(6, 6)))
    common = ["--input", str(graph_file), "--t-cap", "10", "--format", "json"]
    code, out, _ = run_cli(["bench", *common], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    assert any(row["oracle_cost"] is not None for row in rows)
    for row in rows:
        code, out, _ = run_cli(
            ["solve", *common, "--epsilon", repr(row["epsilon"])], capsys
        )
        assert code == 0
        assert json.loads(out)["oracle_cost"] == row["oracle_cost"], row


def test_bench_bad_grid(tmp_path, capsys, monkeypatch):
    # the grid is judged with the other solver flags, before the input is
    # read and before any solve runs: 0.5,nan used to solve at 0.5 first
    # and then exit 3
    def no_solve(*args):
        raise AssertionError("a solve ran before the grid was judged")

    monkeypatch.setattr("vsep.cli.binary_search_solve", no_solve)
    graph_file = tmp_path / "p5.txt"
    graph_file.write_text(P5_TEXT)
    for grid, message in (
        ("zero", "bad epsilon grid 'zero'"),
        ("abc", "bad epsilon grid 'abc'"),
        (",", "bad epsilon grid ','"),
        ("0.5,", "bad epsilon grid '0.5,'"),
        ("0", "--epsilons item 1 of 1 is 0.0: epsilon must be finite and positive"),
        ("0.5,nan", "--epsilons item 2 of 2 is nan: epsilon must be finite and positive"),
        ("0.25,0.5,0,1", "--epsilons item 3 of 4 is 0.0: epsilon must be finite"),
    ):
        for path in (str(graph_file), "/nonexistent/g.txt"):
            with pytest.raises(SystemExit) as info:
                main(["bench", "--input", path, "--epsilons", grid])
            assert info.value.code == 2, (path, grid)
            assert message in capsys.readouterr().err, (path, grid)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_two(capsys):
    bad = [["frobnicate"], ["solve", "--c", "0.7"]]  # balance outside (0, 1/2)
    bad += [["solve", "--epsilon", x] for x in ("0", "-1", "nan", "inf")]
    for command in ("solve", "bench"):
        bad += [[command, "--sigma", x] for x in ("-1", "nan", "inf")]
        # SolverConfig judges these before the input is opened, so not exit 3
        bad += [
            [command, "--input", "/nonexistent/g.txt", flag, x]
            for flag, x in (
                ("--t-cap", "0"),
                ("--replication", "0"),
                ("--brute-cap", "-1"),
                ("--c-prime", "1/2"),
            )
        ]
    for argv in bad:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        capsys.readouterr()


def test_flags_nothing_reads_are_usage_errors(tmp_path, capsys):
    # bench's --epsilons grid sets every row's epsilon, and only solve and
    # bench draw random numbers: these flags would be accepted and ignored
    graph_file = tmp_path / "p5.txt"
    graph_file.write_text(P5_TEXT)
    g = str(graph_file)
    for argv in (
        ["bench", "--input", g, "--epsilon", "0.5"],
        ["bench", "--input", g, "--eps", "0.5"],
        ["validate", "--graph", g, "--input", g, "--seed", "1"],
        ["brute", "--input", g, "--seed", "1"],
        ["flow", "--input", g, "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_negative_seed_is_a_usage_error(capsys, monkeypatch):
    # numpy's SeedSequence takes no negative seed: solve and bench refuse
    # one before reading the input, even where the brute bypass makes no run
    for argv in (
        ["solve", "--input", "/nonexistent/g.txt", "--seed", "-1"],
        ["bench", "--input", "/nonexistent/g.txt", "--seed", "-3"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "seed must be a non-negative integer" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.StringIO(P5_TEXT))
    with pytest.raises(SystemExit) as info:
        main(["solve", "--seed", "-1", "--format", "json"])
    assert info.value.code == 2
    capsys.readouterr()
    # gen's seed drives Python's own generator, which takes any integer
    code, out, _ = run_cli(["gen", "path", "5", "--seed", "-1"], capsys)
    assert code == 0 and parse_graph(out) == path_graph(5)


def test_bad_graph_input_exits_three(capsys, monkeypatch):
    code, _, err = run_cli(["solve"], capsys, monkeypatch, stdin="p 2\n")
    assert code == 3
    assert "input error" in err
    code, _, err = run_cli(["solve", "--input", "/nonexistent/x"], capsys)
    assert code == 3


def test_internal_flow_error_exits_four(tmp_path, capsys, monkeypatch):
    # a FlowError inside a solve comes from a network the solver built,
    # never from the input: it is an internal failure, not exit 3
    import vsep.oracle
    from vsep.flow import FlowError

    def broken(net):
        raise FlowError("internal check failed")

    monkeypatch.setattr(vsep.oracle, "max_flow", broken)
    graph_file = tmp_path / "grid6.txt"
    graph_file.write_text(render_graph(grid_graph(6, 6)))
    for argv in (
        ["solve", "--input", str(graph_file)],
        ["bench", "--input", str(graph_file), "--epsilons", "0.5"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 4, argv
        assert "max-flow" in err


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

_HEAVY_SCIPY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def _run_python(code: str) -> list[str]:
    """The lines a fresh interpreter prints for ``code``, vsep from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


_SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_import_loads_no_scipy():
    # every command starts with `import vsep`; scipy.sparse alone takes
    # about 0.2 s to import, and only a sketch with A != 0 needs it
    assert _run_python(f"import sys, vsep; print({_SCIPY_LOADED})") == ["[]"]


def test_solve_stopping_at_a_zero_loads_no_scipy():
    # grid 9x9 (n = 81 > DENSE_CAP) sketches, and every run of its pinned
    # default solve stops at iteration 0, where A has no entries
    code = f"""
import sys
from vsep.graphs import grid_graph
from vsep.solver import SolverConfig, binary_search_solve
r = binary_search_solve(grid_graph(9, 9), SolverConfig(), 0)
print(r.counters["mmwu_runs"], r.counters["iterations"])
print({_SCIPY_LOADED})
"""
    runs, loaded = _run_python(code)
    assert runs == "6 6"
    assert loaded == "[]"


def test_feedback_loads_scipy_sparse_only():
    # cheap-middle path 401 at t_cap 10 takes 8 flow steps: the first one
    # imports scipy.sparse, and nothing heavier is ever imported
    code = f"""
import sys
from vsep.graphs import path_graph, with_weights
from vsep.solver import SolverConfig, binary_search_solve
g = with_weights(path_graph(401), [1 if i == 200 else 8 for i in range(401)])
print("scipy.sparse" in sys.modules)
r = binary_search_solve(g, SolverConfig(t_cap=10), 0)
print(r.counters["oracle_outcomes"]["flow"])
print("scipy.sparse" in sys.modules, *[m for m in {_HEAVY_SCIPY!r} if m in sys.modules])
"""
    assert _run_python(code) == ["False", "8", "True"]
