"""Command-line front door.

Each subcommand is a thin adapter onto one library operation. The input
graph doubles as the host; state-evaluating commands treat it as the state
that activates every host edge. Exit status: 0 on success, 1 on domain
errors (no equilibrium, exceeded budgets, failed certificates), 2 on usage
errors (bad flags, malformed or unreadable files, an ``--output`` that
cannot be written, infeasible parameters).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from functools import cache

from . import analysis, constructions, game, graphio, spanning
from .errors import GraphParseError, ParameterError, SdncgError, StructureError
from .graphs import HostGraph, full_state

_USAGE_ERRORS = (GraphParseError, ParameterError, StructureError)


def _out(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload, text, head=""):
    """Write ``head``, then what the function ``payload`` builds as one JSON
    line under ``--format json``, or else ``text``: text mode builds no
    JSON-only field."""
    _out(args, head + (json.dumps(payload()) + "\n" if args.format == "json" else text))


def _sizes(text):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ParameterError(f"--sizes must be comma-separated integers, got {text!r}") from None


# per builder parameter of the constructions: the gen flag that sets it and
# what reads that flag's value; an empty string is no value
_GEN_FLAGS = {
    "n": ("n", int),
    "d": ("d", int),
    "k": ("k", int),
    "c": ("c", int),
    "alpha": ("alpha", game.parse_alpha),
    "base": ("input", graphio.load_graph),
    "sizes": ("sizes", _sizes),
}


def _cmd_gen(args):
    fn, names = constructions._FAMILY_BUILDERS[args.family]
    for name, (flag, _) in _GEN_FLAGS.items():
        if name not in names and getattr(args, flag) is not None:
            raise ParameterError(f"family {args.family!r} does not take --{flag}")
    values = {}  # every given value is read before a missing one is named
    for name, (flag, read) in _GEN_FLAGS.items():
        raw = getattr(args, flag)
        values[name] = None if raw in (None, "") else read(raw)
    for name in names:
        # path-clique ignores c when k is 0 or n, and checks it otherwise
        if values[name] is None and not (args.family == "path-clique" and name == "c"):
            raise ParameterError(f"family {args.family!r} requires parameter {name!r}")
    g = fn(*(values[name] for name in names))
    _out(args, graphio.dump_json(g) if args.format == "json" else graphio.dump_text(g))


def _cmd_sw(args):
    host = graphio.load_graph(args.input)
    value = game.social_welfare(full_state(host), game.parse_alpha(args.alpha))
    _out(args, analysis.format_exact(value) + "\n")


def _cmd_stable(args):
    host = graphio.load_graph(args.input)
    report = game.is_pairwise_stable(full_state(host), game.parse_alpha(args.alpha))

    def payload():
        return {
            "stable": report.stable,
            "stable_against_addition": report.stable_against_addition,
            "stable_against_removal": report.stable_against_removal,
            "witnesses": [str(m) for m in report.witnesses],
            "moves_examined": report.moves_examined,
        }

    _emit(args, payload, ("stable" if report.stable else "unstable") + "\n")


def _cmd_dynamics(args):
    host = graphio.load_graph(args.input)
    if args.policy == "random" and args.seed is None:
        raise ParameterError("--policy random requires --seed")
    alpha = game.parse_alpha(args.alpha)
    outcome = game.run_dynamics(
        full_state(host), alpha, policy=args.policy, budget=args.budget, seed=args.seed
    )

    def payload():
        return {
            "terminal": outcome.terminal,
            "steps": outcome.steps,
            "cycle_start": outcome.cycle_start,
            "moves": [str(mv) for _, mv in outcome.trajectory],
            "final_edges": sorted(outcome.final_state.active),
        }

    text = f"terminal: {outcome.terminal}\nsteps: {outcome.steps}\n"
    if outcome.cycle_start is not None:
        text += f"cycle_start: {outcome.cycle_start}\n"
    _emit(args, payload, text, head=f"# seed: {args.seed}\n" if args.policy == "random" else "")


def _emit_tree(args, scaffold, **extra):
    tree = scaffold.tree

    def payload():
        edges = [list(e) for e in sorted(tree.active)]
        return {"n": tree.host.n, "edges": edges, "routing_cost": scaffold.total, **extra}

    _emit(args, payload, graphio.dump_text(HostGraph(tree.host.n, tree.active)))


def _cmd_smrcst(args):
    host = graphio.load_graph(args.input)
    result = spanning.smrcst(host, args.policy)
    _emit_tree(
        args, result.tree, iterations=result.iterations, seed_path_length=result.seed_path_length
    )


def _cmd_mrcst(args):
    host = graphio.load_graph(args.input)
    scaffold = spanning.mrcst_exact(host, args.budget)
    _emit_tree(args, scaffold)


def _cmd_opt(args):
    host = graphio.load_graph(args.input)
    result = analysis.optimum_exact(host, game.parse_alpha(args.alpha), args.budget)
    welfare = analysis.format_exact(result.welfare)

    def payload():
        return {
            "welfare": welfare,
            "optima": len(result.best_states),
            "states_examined": result.states_examined,
            "best_edges": [sorted(st.active) for st in result.best_states],
        }

    _emit(args, payload, welfare + "\n")


def _cmd_atlas(args):
    host = graphio.load_graph(args.input)
    atlas = analysis.enumerate_stable_states(host, game.parse_alpha(args.alpha), args.budget)
    worst = analysis.format_exact(atlas.worst_welfare)
    best = analysis.format_exact(atlas.best_welfare)

    def payload():
        return {
            "stable_count": atlas.stable_count,
            "sw_worst_stable": worst,
            "sw_best_stable": best,
            "states_examined": atlas.states_examined,
            "stable_edges": [sorted(st.active) for st in atlas.stable_states],
        }

    text = f"stable_count: {atlas.stable_count}\nsw_worst_stable: {worst}\nsw_best_stable: {best}\n"
    _emit(args, payload, text)


def _cmd_poa(args):
    host = graphio.load_graph(args.input)
    price = analysis.poa_exact(host, game.parse_alpha(args.alpha), args.budget)
    _out(args, analysis.format_exact(price) + "\n")


def _cmd_cycle(args):
    outcome = analysis.find_improving_cycle(args.n, game.parse_alpha(args.alpha), args.budget)
    if outcome is None:
        _emit(args, lambda: {"found": False}, "cycle: not-found\n")
        return
    steps, begin = outcome.steps, outcome.cycle_start
    moves = [str(mv) for _, mv in outcome.trajectory]
    lines = [
        "cycle: found",
        f"steps: {steps}",
        f"cycle_start: {begin}",
        f"length: {steps - begin}",
        "start: " + " ".join(f"{u}-{v}" for u, v in sorted(outcome.final_state.active)),
        *moves[begin:],
    ]
    text = "\n".join(lines) + "\n"
    _emit(args, lambda: {"found": True, "steps": steps, "cycle_start": begin, "moves": moves}, text)


def _cmd_sweep(args):
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise ParameterError(f"--workers must be between 1 and {cpus}, got {args.workers}")
    if args.budget < 0:
        raise ParameterError(f"--budget must be nonnegative, got {args.budget}")
    alphas = [game.parse_alpha(s) for s in args.alpha.split(",")]
    if args.input:
        hosts = [graphio.load_graph(p) for p in args.input]
    else:
        if args.seed is None:
            raise ParameterError("random sweep requires --seed (or pass --input files)")
        if args.count < 1:
            raise ParameterError(f"--count must be at least 1, got {args.count}")
        hosts = analysis.host_corpus(
            args.count,
            (args.n_min, args.n_max),
            (0.1, 0.45),
            args.seed,
            max_edges=args.max_edges,
        )
        print(f"# seed: {args.seed}", file=sys.stderr)
    # every host's budget is checked before any census is built or any pool started
    for h in hosts:
        analysis._check_subsets(h, args.budget)
    # one census per host answers every alpha
    if args.workers > 1:
        from multiprocessing import Pool

        with Pool(args.workers) as pool:
            per_host = pool.starmap(analysis.sweep_host, [(h, alphas, args.budget) for h in hosts])
    else:
        per_host = [analysis.sweep_host(h, alphas, args.budget) for h in hosts]
    buf = io.StringIO()
    analysis.write_sweep_csv([row for rows in per_host for row in rows], buf)
    _out(args, buf.getvalue())


def _cmd_campaign(args):
    suites = analysis.list_suites() if args.suite == "all" else [args.suite]
    reports = []
    out_lines = []
    for suite in suites:
        report = analysis.theorem_campaign(suite, seed=args.seed)
        reports.append(report)
        for claim in report["claims"]:
            status = "PASS" if claim["pass"] else "FAIL"
            line = f"{status} {suite}/{claim['id']}"
            if not claim["pass"] and claim["detail"]:
                line += f": {claim['detail']}"
            out_lines.append(line)
    sys.stdout.write("\n".join(out_lines) + "\n")
    if args.output:
        _out(args, json.dumps(reports if args.suite == "all" else reports[0], indent=2) + "\n")
    return 0 if all(report["passed"] for report in reports) else 1


@cache  # one parser per process: parse_args leaves it as it was, and main reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdncg",
        description="Exact engine for the social-distancing network creation game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=False, inp=False, budget=None, json_form=True):
        # --format only where the command has a JSON form
        if alpha:
            p.add_argument("--alpha", required=True, help="exact rational, e.g. 7/3")
        if inp:
            p.add_argument("--input", required=True, help="graph file (text or .json)")
        p.add_argument("--output", help="write the result here instead of stdout")
        if json_form:
            p.add_argument("--format", choices=("text", "json"), default="text")
        if budget is not None:
            p.add_argument("--budget", type=int, default=budget)

    p = sub.add_parser("gen", help="emit a named graph family")
    p.add_argument(
        "--family",
        required=True,
        choices=constructions.CONSTRUCTION_FAMILIES,
    )
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--c", type=int)
    p.add_argument("--alpha")
    p.add_argument("--sizes", help="comma-separated clique sizes for clique-network")
    p.add_argument("--input", help="base graph for clique-network")
    p.add_argument("--output")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("sw", help="social welfare of the graph as its own state")
    common(p, alpha=True, inp=True, json_form=False)
    p.set_defaults(fn=_cmd_sw)

    p = sub.add_parser("stable", help="pairwise stability of the graph as its own state")
    common(p, alpha=True, inp=True)
    p.set_defaults(fn=_cmd_stable)

    p = sub.add_parser("dynamics", help="improving-move dynamics from the full graph")
    common(p, alpha=True, inp=True, budget=game.DYNAMICS_BUDGET)
    p.add_argument("--policy", choices=game.POLICIES, default="first")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_dynamics)

    p = sub.add_parser("smrcst", help="swap-maximal routing-cost spanning tree")
    common(p, inp=True)
    p.add_argument("--policy", choices=spanning.PIVOTS, default="best")
    p.set_defaults(fn=_cmd_smrcst)

    p = sub.add_parser("mrcst", help="exact maximum routing-cost spanning tree")
    common(p, inp=True, budget=spanning.TREE_BUDGET)
    p.set_defaults(fn=_cmd_mrcst)

    p = sub.add_parser("opt", help="exact social optimum welfare")
    common(p, alpha=True, inp=True, budget=analysis.CENSUS_BUDGET)
    p.set_defaults(fn=_cmd_opt)

    p = sub.add_parser("atlas", help="exhaustive pairwise-stable set")
    common(p, alpha=True, inp=True, budget=analysis.CENSUS_BUDGET)
    p.set_defaults(fn=_cmd_atlas)

    p = sub.add_parser("poa", help="exact price of anarchy")
    common(p, alpha=True, inp=True, budget=analysis.CENSUS_BUDGET, json_form=False)
    p.set_defaults(fn=_cmd_poa)

    p = sub.add_parser("cycle", help="search for an improving-move cycle on K_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--seed", type=int, help="ignored: the search is exhaustive and deterministic")
    p.add_argument("--budget", type=int, default=analysis.CYCLE_BUDGET)
    p.add_argument("--output")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_cycle)

    p = sub.add_parser("sweep", help="PoA/PoS CSV over hosts x alphas")
    p.add_argument("--alpha", required=True, help="comma-separated exact rationals")
    p.add_argument("--input", action="append", help="host file; repeatable")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--max-edges", type=int, default=13)
    p.add_argument("--budget", type=int, default=analysis.SWEEP_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("campaign", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(fn=_cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.output:  # refused before any work; appending leaves a kept file as it is
            try:
                open(args.output, "a", encoding="utf-8").close()
            except OSError as exc:
                raise ParameterError(f"cannot write {args.output}: {exc}") from None
        return args.fn(args) or 0  # a subcommand returns None on success
    except SdncgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _USAGE_ERRORS) else 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
