"""Command-line front end.

Subcommands: gen (graph generators), solve (full pipeline), validate
(check a separator against a graph), brute (exact enumeration), flow
(max-flow debugging), bench (epsilon sweep).  Exit codes: 0 success,
1 validation reject, 2 usage, 3 bad input, 4 internal failure (a
certification check, or a max flow inside a solve).  Exit 2 covers
every bad value of a solver flag or of bench's ``--epsilons`` grid:
argparse only converts the types, and ``SolverConfig`` judges the
values, each epsilon of the grid included, before any input is read, as
``check_seed`` judges solve's and bench's ``--seed``.

Text solve output embeds the three-line A:/B:/C: block plus a
``balance:`` line, so it pipes straight into ``validate``.  Structured
output is canonical JSON and byte-identical for identical argv + seed;
wall-clock timing appears only in text bench rows for that reason.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction
from typing import Optional

from .embedding import ScheduleError
from .flow import FlowError, FlowNetwork, max_flow
from .graphs import (
    DEFAULT_BRUTE_FORCE_CAP,
    GENERATORS,
    WeightedGraph,
    brute_force_opt,
    generate,
    max_weight_bound,
    parse_graph,
    parse_separator,
    render_graph,
    render_separator,
    validate_separator,
    with_weights,
)
from .solver import (
    CertificationError,
    SolveReport,
    SolverConfig,
    binary_search_solve,
    check_seed,
    report_to_dict,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_CERT = 4


class _InputError(ValueError):
    pass


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _balance_arg(text: str) -> Fraction:
    c = _parse_fraction(text)
    if not (0 < c < Fraction(1, 2)):
        raise argparse.ArgumentTypeError("balance must lie in (0, 1/2)")
    return c


def _epsilon_grid(text: str) -> list[float]:
    """The comma-separated ``--epsilons`` grid, types only: every item
    must be a float, and SolverConfig judges each value (see main)."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad epsilon grid {text!r}")


def _grid_configs(config: SolverConfig, grid: list[float]) -> list[SolverConfig]:
    """One config per epsilon of bench's grid; a bad item is named with
    its value and its 1-based position."""
    configs = []
    for i, e in enumerate(grid, start=1):
        try:
            configs.append(replace(config, epsilon=e))
        except ValueError as exc:
            raise ValueError(
                f"--epsilons item {i} of {len(grid)} is {e!r}: {exc}"
            ) from None
    return configs


def _dump_json(tree) -> str:
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


def _load_graph(path: Optional[str]) -> WeightedGraph:
    return parse_graph(_read_text(path))


def _build_config(args) -> SolverConfig:
    """The ``SolverConfig`` of the parsed solver flags: one keyword per
    field, and a flag left unset keeps the field's default."""
    given = {f.name: getattr(args, f.name, None) for f in fields(SolverConfig)}
    return SolverConfig(**{k: v for k, v in given.items() if v is not None})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    names, _ = GENERATORS[args.kind]
    if len(args.params) != len(names):
        raise _InputError(
            f"generator '{args.kind}' needs parameters {' '.join(names)}, "
            f"got {len(args.params)}"
        )
    g = generate(args.kind, dict(zip(names, args.params)), seed=args.seed)
    if args.max_weight is not None:
        import random

        bound = max_weight_bound(g.n)
        if not (1 <= args.max_weight <= bound):
            raise _InputError(f"max weight must lie in [1, {bound}] for n={g.n}")
        rng = random.Random(args.seed)
        g = with_weights(g, [rng.randint(1, args.max_weight) for _ in range(g.n)])
    sys.stdout.write(render_graph(g))
    return EXIT_OK


def _solve(g: WeightedGraph, config: SolverConfig, seed: int) -> SolveReport:
    """binary_search_solve, with a FlowError raised inside it reported as
    an internal failure (exit 4): the solver builds every network it
    flows, so the input cannot be at fault."""
    try:
        return binary_search_solve(g, config, seed)
    except FlowError as exc:
        raise CertificationError(f"internal max-flow error: {exc}") from exc


def _cmd_solve(args) -> int:
    g = _load_graph(args.input)
    report = _solve(g, args.config, args.seed)
    if args.format == "json":
        tree = report_to_dict(report)
        tree["n"] = g.n
        tree["m"] = g.m
        tree["c"] = str(args.config.c)
        sys.stdout.write(_dump_json(tree))
        return EXIT_OK
    sol = report.separator
    counters = report.counters
    lines = [
        f"n: {g.n}",
        f"m: {g.m}",
        f"c: {args.config.c}",
        f"epsilon: {report.epsilon_used:.6g}",
        f"seed: {report.seed}",
        f"cost: {sol.cost}",
        f"balance: {sol.balance_achieved}",
        f"via: {report.separator_via}",
        f"alpha_star: {_opt(report.alpha_star)}",
        f"certified_lower_bound: {_opt(report.certified_lower_bound)}",
        f"oracle_cost: {_opt(report.oracle_cost)}",
        f"kappa: {_opt_float(report.kappa)}",
        f"ratio_vs_brute: {_opt(report.ratio_vs_brute)}",
        f"brute_opt: {_opt(report.brute_opt)}",
        f"cost_vs_bound_ok: {_opt(report.cost_vs_bound_ok)}",
        "counters: "
        + " ".join(
            f"{k}={v}"
            for k, v in counters.items()
            if not isinstance(v, dict)
        ),
        "alphas_tried: " + " ".join(str(a) for a in report.alphas_tried),
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.write(render_separator(sol))
    return EXIT_OK


def _opt(v) -> str:
    return "-" if v is None else str(v)


def _opt_float(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def _extract_separator_text(text: str) -> tuple[str, Optional[Fraction]]:
    """Pull the A:/B:/C: block (and a 'balance:' line if present) out of
    arbitrary surrounding report text, so solve output pipes directly."""
    kept = []
    balance = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith(("A:", "B:", "C:")):
            kept.append(line)
        elif line.startswith("balance:"):
            try:
                balance = Fraction(line.split(":", 1)[1].strip())
            except (ValueError, ZeroDivisionError):
                raise _InputError(f"unreadable balance line: {raw!r}")
    return "\n".join(kept) + "\n", balance


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    text, embedded_balance = _extract_separator_text(_read_text(args.input))
    balance = args.c if args.c is not None else embedded_balance
    if balance is None:
        balance = Fraction(1, 3)
    sol = parse_separator(text, g, balance)
    ok, msg = validate_separator(g, sol, balance)
    if args.format == "json":
        sys.stdout.write(
            _dump_json({"ok": ok, "message": msg, "balance": str(balance)})
        )
    else:
        sys.stdout.write(("ok" if ok else f"reject: {msg}") + "\n")
    return EXIT_OK if ok else EXIT_REJECT


def _cmd_brute(args) -> int:
    g = _load_graph(args.input)
    cost, sol = brute_force_opt(g, args.c, cap=args.cap)
    if args.format == "json":
        sys.stdout.write(
            _dump_json(
                {
                    "opt": cost,
                    "a": list(sol.a_side),
                    "b": list(sol.b_side),
                    "c": list(sol.separator),
                    "balance": str(args.c),
                }
            )
        )
        return EXIT_OK
    sys.stdout.write(f"opt {cost}\n")
    sys.stdout.write(render_separator(sol))
    return EXIT_OK


def _parse_network(text: str) -> FlowNetwork:
    """Line format: 'n <nodes>' first, then 'a <u> <v> <cap>' arcs and
    optional 's <node>' / 't <node>' (defaults 0 and n-1)."""
    n = None
    source = None
    sink = None
    arcs: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "n" and len(parts) == 2:
                n = int(parts[1])
            elif tag == "s" and len(parts) == 2:
                source = int(parts[1])
            elif tag == "t" and len(parts) == 2:
                sink = int(parts[1])
            elif tag == "a" and len(parts) == 4:
                arcs.append((int(parts[1]), int(parts[2]), int(parts[3])))
            else:
                raise _InputError(f"line {line_no}: unrecognized record {raw!r}")
        except ValueError:
            raise _InputError(f"line {line_no}: integer fields expected in {raw!r}")
    if n is None or n < 2:
        raise _InputError("network needs an 'n <nodes>' record with n >= 2")
    net = FlowNetwork(
        num_nodes=n,
        source=0 if source is None else source,
        sink=n - 1 if sink is None else sink,
    )
    for u, v, cap in arcs:
        net.add_arc(u, v, cap)
    return net


def _cmd_flow(args) -> int:
    net = _parse_network(_read_text(args.input))
    result = max_flow(net)
    if args.format == "json":
        sys.stdout.write(
            _dump_json(
                {
                    "value": result.value,
                    "cut_capacity": result.cut_capacity,
                    "s_cut": list(result.s_cut),
                    "t_cut": list(result.t_cut),
                    "arc_flow": list(result.flow),
                    "paths": [
                        {"nodes": list(p.nodes), "amount": p.amount}
                        for p in result.paths
                    ],
                }
            )
        )
        return EXIT_OK
    lines = [
        f"value {result.value}",
        f"cut_capacity {result.cut_capacity}",
        "s_cut: " + " ".join(map(str, result.s_cut)),
        "t_cut: " + " ".join(map(str, result.t_cut)),
    ]
    for p in result.paths:
        lines.append("path " + "->".join(map(str, p.nodes)) + f" x{p.amount}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    g = _load_graph(args.input)
    rows = []
    for config in args.configs:
        started = time.perf_counter()
        report = _solve(g, config, args.seed)
        wall_ms = (time.perf_counter() - started) * 1000.0
        rows.append(
            {
                "epsilon": report.epsilon_used,
                "cost": report.separator.cost,
                "oracle_cost": report.oracle_cost,
                "maxflow_calls": report.counters["maxflow_calls"],
                "kappa": report.kappa,
                "wall_ms": wall_ms,
            }
        )
    if args.format == "json":
        # wall time omitted: structured output is byte-identical per seed
        clean = [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]
        sys.stdout.write(_dump_json({"rows": clean}))
        return EXIT_OK
    for row in rows:
        sys.stdout.write(
            f"eps={row['epsilon']:.6g} cost={row['cost']} "
            f"oracle_cost={_opt(row['oracle_cost'])} "
            f"maxflow_calls={row['maxflow_calls']} "
            f"kappa={_opt_float(row['kappa'])} wall_ms={row['wall_ms']:.1f}\n"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsep",
        description="Balanced vertex separators via multiplicative weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_solver=False):
        p.add_argument("--input", default=None, help="input path (default stdin)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_solver:
            # types only: SolverConfig and check_seed judge the values (see main)
            p.set_defaults(solver_parser=p)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--c", type=_parse_fraction)
            p.add_argument("--c-prime", dest="c_prime", type=_parse_fraction)
            p.add_argument(
                "--t-cap",
                dest="t_cap",
                type=int,
                help="iteration budget of the whole solve, shared by its runs",
            )
            p.add_argument("--brute-cap", dest="brute_cap", type=int)
            p.add_argument("--replication", type=int)
            p.add_argument("--sigma", type=float)
            p.add_argument(
                "--no-brute-bypass",
                dest="brute_bypass",
                action="store_false",
                help="run the full pipeline even below the brute-force cap",
            )

    p_gen = sub.add_parser("gen", help="emit a generated graph")
    p_gen.add_argument("kind", choices=GENERATORS)
    p_gen.add_argument("params", nargs="*", help="generator parameters")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--max-weight",
        dest="max_weight",
        type=int,
        default=None,
        help="randomize vertex weights in [1, M]",
    )
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve for a balanced separator")
    add_common(p_solve, with_solver=True)
    # bench has no --epsilon: its --epsilons grid sets epsilon row by row
    p_solve.add_argument("--epsilon", type=float)
    p_solve.set_defaults(func=_cmd_solve)

    p_val = sub.add_parser("validate", help="check a separator against a graph")
    add_common(p_val)
    p_val.add_argument("--graph", required=True, help="graph file path")
    p_val.add_argument(
        "--c",
        type=_balance_arg,
        default=None,
        help="balance to check (default: balance line in the input, else 1/3)",
    )
    p_val.set_defaults(func=_cmd_validate)

    p_brute = sub.add_parser("brute", help="exact optimum by enumeration")
    add_common(p_brute)
    p_brute.add_argument("--c", type=_balance_arg, default=Fraction(1, 3))
    p_brute.add_argument("--cap", type=int, default=DEFAULT_BRUTE_FORCE_CAP)
    p_brute.set_defaults(func=_cmd_brute)

    p_flow = sub.add_parser("flow", help="max flow on an explicit network")
    add_common(p_flow)
    p_flow.set_defaults(func=_cmd_flow)

    # no abbreviations, or --epsilon would silently stand for --epsilons
    p_bench = sub.add_parser(
        "bench", help="epsilon sweep on one instance", allow_abbrev=False
    )
    add_common(p_bench, with_solver=True)
    p_bench.add_argument(
        "--epsilons",
        type=_epsilon_grid,
        default="0.25,0.5,0.75,1.0",
        help="comma-separated epsilon grid",
    )
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "solver_parser" in args:
        # before any input is read: a bad solver flag, seed or epsilon of
        # bench's grid is a usage error
        try:
            args.config = _build_config(args)
            check_seed(args.seed)
            if "epsilons" in args:
                args.configs = _grid_configs(args.config, args.epsilons)
        except ValueError as exc:
            args.solver_parser.error(str(exc))
    try:
        return args.func(args)
    except (CertificationError, ScheduleError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
