"""The benchmark's checks accept correct outputs and reject corrupted ones.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
import sdncg  # noqa: E402
import sdncg.cli  # noqa: E402,F401

# a seed on which the K_5 cycle search ends within a few seconds
FAST_CYCLE_SEED = "5"


def _sweep_row(n, edges, alpha):
    row = sdncg.sweep_cell(sdncg.HostGraph(n, edges), alpha, 1 << 16)
    return {k: str(v) for k, v in row.items()}


@pytest.fixture(scope="module")
def small_host():
    n = 5
    return n, inputs.random_host(n, 8, random.Random(7))


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(6, 5), Fraction(10)])
def test_correct_sweep_cell_passes(small_host, alpha):
    n, edges = small_host
    states = checks.brute_force_states(n, edges)
    assert checks.check_cell(n, edges, alpha, _sweep_row(n, edges, alpha), states) == []


@pytest.mark.parametrize(
    "alpha, field, delta",
    list(
        product(
            [Fraction(1, 2), Fraction(6, 5), Fraction(10)],
            ["sw_opt", "sw_best_stable", "sw_worst_stable", "stable_count", "states_examined"],
            [1, -1],
        )
    ),
)
def test_perturbed_sweep_cell_fails(small_host, alpha, field, delta):
    n, edges = small_host
    row = _sweep_row(n, edges, alpha)
    if row[field] == "":
        pytest.skip("field empty on this cell")
    row[field] = str(Fraction(row[field]) + delta)
    states = checks.brute_force_states(n, edges)
    assert checks.check_cell(n, edges, alpha, row, states)


def test_property_checks_alone_catch_a_wrong_count(small_host):
    # the cells too large for brute force rely on the alpha < 1 and
    # host-uniqueness properties
    n, edges = small_host
    for alpha in (Fraction(1, 2), Fraction(10)):
        row = _sweep_row(n, edges, alpha)
        row["stable_count"] = str(int(row["stable_count"]) + 1)
        assert checks.check_cell(n, edges, alpha, row)


@pytest.fixture(scope="module")
def poly_case():
    n = 30
    edges = inputs.random_host(n, 3 * n, random.Random(11))
    host = sdncg.HostGraph(n, edges)
    res = sdncg.smrcst(host)
    tree = {
        "pivot": "best",
        "edges": sorted(list(e) for e in res.tree.tree.active),
        "routing_cost": res.routing_cost,
        "seed_path_length": res.seed_path_length,
        "iterations": res.iterations,
        "swap_maximal": True,
        "stable": True,
    }
    return n, edges, tree


def test_correct_tree_passes(poly_case):
    n, edges, tree = poly_case
    assert checks.check_tree(n, edges, tree) == []


def _worse_swap(n, edges, tree_edges):
    """A spanning tree one swap away whose routing cost is strictly lower."""
    base = checks.routing_cost(n, tree_edges)
    for out in tree_edges:
        for add in edges:
            if add in tree_edges:
                continue
            cand = sorted(set(tree_edges) - {out} | {add})
            if checks.distance_rows(n, cand) is None:
                continue
            cost = checks.routing_cost(n, cand)
            if cost < base:
                return cand, cost
    raise AssertionError("no cost-lowering swap")


@pytest.mark.parametrize("recompute_cost", [True, False])
def test_tree_with_one_edge_swapped_fails(poly_case, recompute_cost):
    n, edges, tree = poly_case
    cand, cost = _worse_swap(n, edges, [tuple(e) for e in tree["edges"]])
    bad = dict(tree, edges=[list(e) for e in cand])
    if recompute_cost:
        bad["routing_cost"] = cost
    assert checks.check_tree(n, edges, bad)


def test_swap_formula_matches_full_recomputation(poly_case):
    n, edges, tree = poly_case
    tree_edges = [tuple(e) for e in tree["edges"]]
    cand, _ = _worse_swap(n, edges, tree_edges)
    rows = checks.distance_rows(n, cand)
    base = sum(map(sum, rows))
    want = set()
    for out in cand:
        for add in edges:
            if add in cand:
                continue
            new = sorted(set(cand) - {out} | {add})
            if checks.distance_rows(n, new) is not None and checks.routing_cost(n, new) > base:
                want.add((out, add))
    assert set(checks.improving_swaps(n, cand, rows, edges)) == want
    assert want


@pytest.fixture(scope="module")
def cycle_outputs():
    args = ("--n", "5", "--alpha", "5/2", "--seed", FAST_CYCLE_SEED)
    return worker.to_json("cycle", worker.run_cycle(sdncg, [], [], args))


def test_correct_cycle_passes(cycle_outputs):
    assert checks.check_cycle(5, Fraction(5, 2), cycle_outputs) == []


def _with_step(outputs, i, move):
    """The outputs with move i altered, printed output altered to match,
    so that only the replay can tell."""
    outcome = dict(outputs["outcome"])
    steps = [dict(s) for s in outcome["steps"]]
    steps[i]["move"] = move
    outcome["steps"] = steps
    lines = outputs["stdout"].splitlines()
    payload = json.loads(lines[-1])
    payload["moves"][i] = "{} {} {}".format(*move)
    stdout = "\n".join(lines[:-1] + [json.dumps(payload)]) + "\n"
    return dict(outputs, outcome=outcome, stdout=stdout)


def test_cycle_with_one_move_altered_fails(cycle_outputs):
    steps = cycle_outputs["outcome"]["steps"]
    start = cycle_outputs["outcome"]["cycle_start"]
    for i in (0, start, len(steps) - 1):
        kind, u, v = steps[i]["move"]
        for move in (
            ["remove" if kind == "add" else "add", u, v],
            [kind, u, (v + 1) % 5 if (v + 1) % 5 != u else (v + 2) % 5],
        ):
            bad = _with_step(cycle_outputs, i, move)
            assert checks.check_cycle(5, Fraction(5, 2), bad), (i, move)


def test_cycle_with_wrong_start_fails(cycle_outputs):
    outcome = dict(cycle_outputs["outcome"])
    outcome["cycle_start"] = (outcome["cycle_start"] + 1) % len(outcome["steps"])
    lines = cycle_outputs["stdout"].splitlines()
    payload = dict(json.loads(lines[-1]), cycle_start=outcome["cycle_start"])
    stdout = "\n".join(lines[:-1] + [json.dumps(payload)]) + "\n"
    bad = dict(cycle_outputs, outcome=outcome, stdout=stdout)
    assert checks.check_cycle(5, Fraction(5, 2), bad)


def test_failed_campaign_claim_fails():
    report = {"suite": "poa-pos", "code": 1, "stdout": "PASS poa-pos/a\nFAIL poa-pos/b: x\n"}
    assert len(checks.check_campaign(report)) == 2
