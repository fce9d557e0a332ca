"""Benchmark of the sdncg engine: three workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload census|poly|cycle --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory. The hosts are made from ``--seed`` and written as graph files
under ``perfbench/work/``, which is removed afterwards. Each round starts
``worker.py`` in a fresh interpreter, one at a time, and rounds repeat
until ``--seconds`` have passed (at least one). Before the rounds, extra
interpreters only set up and exit, so that ``setup_s`` is a median of
several set-ups even when one round fills the run.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, medians over the
rounds; with ``--trace 1`` the rounds are traced and the metrics are the
per-layer counts and self times. A full record, with every traced function,
goes to ``perfbench/results/``. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_PROBES = 5
ROUND_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# every traced function the benchmark reports, by layer
TRACED = (
    "graphs.bfs_all_pairs",
    "graphs.tree_swap_delta",
    "graphs.is_bridge",
    "game.has_improving_move",
    "game.stability_interval",
    "game.addition_decreases",
    "game.removal_increases",
    "game.improving_moves",
    "game.apply_move",
    "game.run_dynamics",
    "game.is_pairwise_stable",
    "game.social_welfare",
    "spanning.smrcst",
    "spanning.greedy_long_path",
    "spanning.extend_to_spanning_tree",
    "spanning.smrcst_certificates",
    "spanning.mrcst_exact",
    "analysis.sweep_cell",
    "analysis.optimum_exact",
    "analysis.enumerate_stable_states",
    "analysis.poa_exact",
    "analysis.theorem_campaign",
    "analysis.find_improving_cycle",
    "cli.main",
)


def operations(workload: str, hosts) -> int:
    """Operations in one round: sweep cells, SMRCST runs, searches, suites."""
    if workload == "census":
        return len(hosts) * len(inputs.CENSUS_ALPHAS) + len(inputs.CENSUS_SUITES)
    if workload == "poly":
        return 2 * len(hosts) + 1
    return 1


def run_worker(workload: str, input_dir: Path, *flags: str) -> dict:
    """Start one worker interpreter and wait for its JSON result."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(input_dir), *flags],
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} {flags} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def check(workload: str, hosts, outputs) -> list[str]:
    if workload == "census":
        alphas = [Fraction(a) for a in inputs.CENSUS_ALPHAS]
        return checks.check_census(hosts, alphas, outputs)
    if workload == "poly":
        return checks.check_poly(hosts, outputs)
    return checks.check_cycle(5, Fraction(5, 2), outputs)


def output_counts(workload: str, outputs) -> dict:
    """Work counts read from the outputs: enumerated states, applied swaps."""
    states = swaps = 0
    if workload == "census":
        states = sum(int(r["states_examined"]) for r in checks.sweep_rows(outputs["sweep_csv"]))
    if workload == "poly":
        swaps = sum(t["iterations"] for t in outputs["trees"])
    return {"analysis.states_examined": states, "spanning.swaps": swaps}


def per_layer(trace: dict, counts: dict) -> dict:
    """The per-layer metrics; a traced name the program no longer defines
    reads 0 and is named on stderr."""
    absent = [name for name in TRACED if name not in trace]
    if absent:
        print(f"absent from sdncg: {', '.join(absent)}", file=sys.stderr)
    metrics = {}
    for name in TRACED:
        rec = trace.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.self_s"] = (rec["self_s"], "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (trace[layer]["self_s"], "s")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    return metrics


def median_trace(traces: list[dict]) -> dict:
    """Median self time per traced name; call counts from the first round."""
    out = {}
    for name, rec in traces[0].items():
        out[name] = dict(rec)
        out[name]["self_s"] = statistics.median(t[name]["self_s"] for t in traces)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sdncg" / "__init__.py").is_file():
        print(f"error: no sdncg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    hosts = inputs.make_hosts(args.workload, args.seed)
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    flags = ("--trace",) if args.trace else ()
    try:
        inputs.write_hosts(hosts, work)
        setups = [run_worker(args.workload, work, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(run_worker(args.workload, work, *flags))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outputs = rounds[0]["outputs"]
    problems = check(args.workload, hosts, outputs)
    problems += [f"round {i} output differs from round 0" for i, r in enumerate(rounds) if r["outputs"] != outputs]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    trace = median_trace([r["trace"] for r in rounds]) if args.trace else None
    if trace:
        metrics = per_layer(trace, output_counts(args.workload, outputs))
    else:
        setups += [r["setup_s"] for r in rounds]
        metrics = {"setup_s": (statistics.median(setups), "s")}
        for name, unit in END_TO_END[1:]:
            metrics[name] = (statistics.median(r[name] for r in rounds), unit)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "setup_s": setups,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "problems": problems,
        "trace_all": trace,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    summary = {
        "correct": not problems,
        "attempted": operations(args.workload, hosts) * len(rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
