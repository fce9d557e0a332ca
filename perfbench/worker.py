"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <input_dir> [--trace] [--setup-only]

Imports sdncg from ``src/``, loads the host files of ``input_dir`` with the
program's own reader, marks the end of set-up, runs the workload's calls
and prints one JSON object on stdout. ``run.py`` starts this script once
per round, so every round pays interpreter start and import and no round
sees the process-wide caches of another. With ``--trace`` every public
sdncg function is wrapped first (see ``tracer.py``). With ``--setup-only``
the script stops after set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402


def _cli(cli, argv):
    """Run one sdncg command line in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _campaign(cli, suite):
    code, text = _cli(cli, ["campaign", "--suite", suite, "--seed", "0"])
    return {"suite": suite, "code": code, "stdout": text}


def run_census(sdncg, hosts, files):
    argv = ["sweep", "--alpha", ",".join(inputs.CENSUS_ALPHAS), "--workers", "1"]
    for path in files:
        argv += ["--input", str(path)]
    code, csv_text = _cli(sdncg.cli, argv)
    campaigns = [_campaign(sdncg.cli, s) for s in inputs.CENSUS_SUITES]
    return {"sweep_code": code, "sweep_csv": csv_text, "campaigns": campaigns}


def run_poly(sdncg, hosts, files):
    results = []
    for host in hosts:
        for pivot in ("best", "first"):
            res = sdncg.spanning.smrcst(host, pivot)
            cert = sdncg.spanning.smrcst_certificates(res, host)
            report = sdncg.game.is_pairwise_stable(res.tree.tree, Fraction(host.n, 3))
            results.append((host, pivot, res, cert, report))
    campaign = _campaign(sdncg.cli, inputs.POLY_SUITE)
    return {"trees": results, "campaigns": [campaign]}


def run_cycle(sdncg, hosts, files, args=inputs.CYCLE_ARGS):
    # `sdncg cycle` prints the moves but not the start state, so the outcome
    # is also taken from the call the CLI makes, for the replay check.
    captured = []
    search = sdncg.analysis.find_improving_cycle

    def keep(*a, **kw):
        out = search(*a, **kw)
        captured.append(out)
        return out

    sdncg.analysis.find_improving_cycle = keep
    try:
        code, text = _cli(sdncg.cli, ["cycle", *args, "--format", "json"])
    finally:
        sdncg.analysis.find_improving_cycle = search
    return {"code": code, "stdout": text, "outcome": captured[0] if captured else None}


RUNNERS = {"census": run_census, "poly": run_poly, "cycle": run_cycle}


def _state_edges(host, mask):
    return [list(host.edges[i]) for i in range(host.m) if (mask >> i) & 1]


def to_json(workload, out):
    """Outputs in plain data, converted after the timed region."""
    if workload == "poly":
        trees = []
        for host, pivot, res, cert, report in out["trees"]:
            trees.append(
                {
                    "pivot": pivot,
                    "edges": sorted(list(e) for e in res.tree.tree.active),
                    "routing_cost": res.routing_cost,
                    "seed_path_length": res.seed_path_length,
                    "iterations": res.iterations,
                    "swap_maximal": cert["swap_maximal"],
                    "stable": report.stable,
                }
            )
        return {"trees": trees, "campaigns": out["campaigns"]}
    if workload == "cycle":
        outcome = out["outcome"]
        data = {"code": out["code"], "stdout": out["stdout"], "outcome": None}
        if outcome is not None:
            host = outcome.final_state.host
            data["outcome"] = {
                "n": host.n,
                "terminal": outcome.terminal,
                "cycle_start": outcome.cycle_start,
                "steps": [
                    {"state": _state_edges(h, mask), "move": [mv.kind, mv.u, mv.v]}
                    for (h, mask), mv in outcome.trajectory
                ],
                "final_state": _state_edges(host, outcome.final_state.mask),
            }
        return data
    return out


def main(argv):
    workload, input_dir = argv[0], Path(argv[1])
    trace = "--trace" in argv
    import sdncg
    import sdncg.cli  # noqa: F401  (the package does not import its CLI)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    files = sorted(input_dir.glob("host*.txt"))
    hosts = [sdncg.graphio.load_graph(str(p)) for p in files]
    ready = time.monotonic()
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready}))
        return 0
    cpu0 = time.process_time()
    out = RUNNERS[workload](sdncg, hosts, files)
    end = time.monotonic()
    cpu = time.process_time() - cpu0
    result = {
        "ready": ready,
        "wall_s": end - ready,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": to_json(workload, out),
        "trace": tracer.report() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
