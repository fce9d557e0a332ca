"""Correctness checks of the workload outputs, made apart from sdncg.

Nothing here imports the program. Distances come from a plain queue BFS;
a utility is alpha times the degree plus the summed hop distances, taken
from its definition; welfare is the sum of the utilities. Each ``check_*``
function returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import combinations

import numpy as np

# sweep cells on hosts with at most this many edges are compared with the
# brute-force reference; 2^10 subsets take about 0.2 s to recompute
BRUTE_MAX_EDGES = 10


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs(adj, src):
    """Hop distances from src; None for nodes it cannot reach."""
    dist = [None] * len(adj)
    dist[src] = 0
    queue = [src]
    for v in queue:
        for w in adj[v]:
            if dist[w] is None:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def distance_rows(n, edges):
    """All-pairs distances, or None when the graph is disconnected."""
    adj = adjacency(n, edges)
    rows = [bfs(adj, v) for v in range(n)]
    if any(d is None for d in rows[0]):
        return None
    return rows


def routing_cost(n, edges):
    """Ordered sum of all pairwise distances d(V, V)."""
    rows = distance_rows(n, edges)
    if rows is None:
        raise ValueError("disconnected")
    return sum(map(sum, rows))


def _endpoint(adj, v):
    """(degree, distance sum) of v, or None when v does not reach every node."""
    d = bfs(adj, v)
    if None in d:
        return None
    return len(adj[v]), sum(d)


def _utility(alpha, part):
    deg, dist = part
    return alpha * deg + dist


def kirchhoff_count(n, edges):
    """Spanning-tree count: determinant of the reduced Laplacian, exactly."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    mat = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for col in range(n - 1):
        pivot = next((r for r in range(col, n - 1) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n - 1):
            factor = mat[r][col] / mat[col][col]
            for c in range(col, n - 1):
                mat[r][c] -= factor * mat[col][c]
    return int(abs(det))


def tree_costs(n, edges):
    """Routing cost of every spanning tree, by trying every (n-1)-subset."""
    out = []
    for subset in combinations(edges, n - 1):
        rows = distance_rows(n, subset)
        if rows is not None:
            out.append(sum(map(sum, rows)))
    return out


# ---------------------------------------------------------------------------
# census


def brute_force_states(n, edges):
    """Every connected spanning edge subset of a host, with its endpoint data.

    For each state: its edge count, its routing cost, and for every legal
    move the (degree, distance sum) of both endpoints before and after the
    move, each recomputed from scratch by BFS. An addition is legal for any
    host edge not in the state, a removal for any edge whose removal keeps
    the state connected. The records do not depend on alpha.
    """
    states = []
    for k in range(n - 1, len(edges) + 1):
        for subset in combinations(edges, k):
            adj = adjacency(n, subset)
            rows = [bfs(adj, v) for v in range(n)]
            if None in rows[0]:
                continue
            before = [(len(adj[v]), sum(rows[v])) for v in range(n)]
            present = set(subset)
            moves = []
            for u, v in edges:
                adding = (u, v) not in present
                if adding:
                    adj[u].add(v)
                    adj[v].add(u)
                else:
                    adj[u].discard(v)
                    adj[v].discard(u)
                after_u, after_v = _endpoint(adj, u), _endpoint(adj, v)
                if adding:
                    adj[u].discard(v)
                    adj[v].discard(u)
                else:
                    adj[u].add(v)
                    adj[v].add(u)
                if after_u is None:
                    continue  # the removal disconnects the state
                moves.append((adding, before[u], after_u, before[v], after_v))
            states.append((before, moves))
    return states


def brute_force_cell(states, alpha):
    """(optimum welfare, welfares of the stable states, states examined)."""
    welfares = []
    stable = []
    for before, moves in states:
        welfare = sum(_utility(alpha, part) for part in before)
        welfares.append(welfare)
        improving = False
        for adding, bu, au, bv, av in moves:
            gain_u = _utility(alpha, au) > _utility(alpha, bu)
            gain_v = _utility(alpha, av) > _utility(alpha, bv)
            if (gain_u and gain_v) if adding else (gain_u or gain_v):
                improving = True
                break
        if not improving:
            stable.append(welfare)
    return max(welfares), stable, len(states)


def _fraction(text):
    return None if text == "" else Fraction(text)


def check_cell(n, edges, alpha, row, states=None):
    """Problems with one sweep CSV row of host (n, edges) at alpha."""
    where = f"cell n={n} m={len(edges)} alpha={alpha}"
    m = len(edges)
    try:
        got_alpha = Fraction(int(row["alpha_num"]), int(row["alpha_den"]))
        opt, worst, best, poa, pos = (
            _fraction(row[k]) for k in ("sw_opt", "sw_worst_stable", "sw_best_stable", "poa", "pos")
        )
        count = int(row["stable_count"])
        examined = int(row["states_examined"])
        if int(row["n"]) != n or int(row["m"]) != m or got_alpha != alpha:
            return [f"{where}: row is for n={row['n']} m={row['m']} alpha={got_alpha}"]
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"{where}: malformed row {row!r}: {exc}"]
    problems = []
    if count > 0:
        if None in (opt, worst, best, poa, pos):
            return [f"{where}: {count} stable states but empty welfare fields"]
        if not worst <= best <= opt:
            problems.append(f"{where}: not sw_worst {worst} <= sw_best {best} <= sw_opt {opt}")
        if poa != opt / worst or pos != opt / best:
            problems.append(f"{where}: poa {poa} / pos {pos} are not sw_opt over the stable welfares")
        if not 1 <= pos <= poa:
            problems.append(f"{where}: not 1 <= pos {pos} <= poa {poa}")
    elif any(x is not None for x in (worst, best, poa, pos)):
        problems.append(f"{where}: no stable state but stable welfare fields are set")
    if alpha < 1:
        # only the spanning trees are stable, and a maximum routing-cost tree is optimal
        costs = tree_costs(n, edges)
        trees = kirchhoff_count(n, edges)
        if len(costs) != trees:
            problems.append(f"{where}: reference disagrees with itself: {len(costs)} trees, Kirchhoff {trees}")
        if count != trees:
            problems.append(f"{where}: stable_count {count} != {trees} spanning trees")
        want = 2 * alpha * (n - 1) + max(costs)
        if opt != want or best != want:
            problems.append(f"{where}: sw_opt {opt} / sw_best {best} != 2a(n-1) + max tree cost = {want}")
        if worst != 2 * alpha * (n - 1) + min(costs):
            problems.append(f"{where}: sw_worst {worst} is not the cheapest spanning tree's welfare")
    if alpha > Fraction((n - 1) ** 2, 4):
        host_welfare = 2 * alpha * m + routing_cost(n, edges)
        if count != 1 or worst != host_welfare or best != host_welfare:
            problems.append(f"{where}: the host (welfare {host_welfare}) is not the only stable state")
    if states is not None:
        ref_opt, ref_stable, ref_examined = brute_force_cell(states, alpha)
        got = (opt, count, worst, best, examined)
        want = (
            ref_opt,
            len(ref_stable),
            min(ref_stable, default=None),
            max(ref_stable, default=None),
            ref_examined,
        )
        if got != want:
            problems.append(
                f"{where}: (sw_opt, stable_count, sw_worst, sw_best, states_examined) = "
                f"{got}, brute force gives {want}"
            )
    return problems


def check_campaign(report):
    """Every claim line of one `sdncg campaign` run reads PASS."""
    suite = report["suite"]
    lines = [ln for ln in report["stdout"].splitlines() if ln.strip()]
    problems = []
    if report["code"] != 0:
        problems.append(f"campaign {suite}: exit code {report['code']}")
    if not lines:
        problems.append(f"campaign {suite}: no claims printed")
    problems += [
        f"campaign {suite}: {ln}" for ln in lines if not ln.startswith(f"PASS {suite}/")
    ]
    return problems


def sweep_rows(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def check_census(hosts, alphas, outputs):
    problems = []
    if outputs["sweep_code"] != 0:
        problems.append(f"sweep: exit code {outputs['sweep_code']}")
    rows = sweep_rows(outputs["sweep_csv"])
    cells = [(n, edges, a) for n, edges in hosts for a in alphas]
    if len(rows) != len(cells):
        problems.append(f"sweep: {len(rows)} rows for {len(cells)} cells")
    brute = {}
    for row, (n, edges, a) in zip(rows, cells):
        states = None
        if len(edges) <= BRUTE_MAX_EDGES:
            key = (n, tuple(edges))
            if key not in brute:
                brute[key] = brute_force_states(n, edges)
            states = brute[key]
        problems += check_cell(n, edges, a, row, states)
    for report in outputs["campaigns"]:
        problems += check_campaign(report)
    return problems


# ---------------------------------------------------------------------------
# poly


def improving_swaps(n, tree_edges, rows, host_edges):
    """Improving single swaps (tree edge out, host edge in) of a spanning tree.

    Removing tree edge (a, b) splits the nodes into the side S nearer to b
    and the rest T. Distances inside S and inside T do not change when a
    host edge (p, q) with p in S and q in T replaces (a, b); a cross pair
    (x, y) gets d(x, p) + 1 + d(q, y). So the cross sum becomes
    |T| d(S, p) + |S| |T| + |S| d(q, T), computed for all candidate edges
    at once from the tree's distance matrix.
    """
    dist = np.array(rows, dtype=np.int64)
    in_tree = set(tree_edges)
    extra = np.array([e for e in host_edges if e not in in_tree], dtype=np.int64).reshape(-1, 2)
    found = []
    for a, b in tree_edges:
        side = dist[b] < dist[a]
        s = int(side.sum())
        t = n - s
        to_side = dist[:, side].sum(axis=1)
        to_rest = dist[:, ~side].sum(axis=1)
        cross = int(to_side[~side].sum())
        x, y = extra[:, 0], extra[:, 1]
        x_in = side[x]
        crossing = x_in != side[y]
        p = np.where(x_in, x, y)[crossing]
        q = np.where(x_in, y, x)[crossing]
        new_cross = t * to_side[p] + s * t + s * to_rest[q]
        for i in np.nonzero(new_cross > cross)[0]:
            found.append(((a, b), (int(min(p[i], q[i])), int(max(p[i], q[i])))))
    return found


def addition_gains(n, tree_edges, host_edges, alpha):
    """Host edges whose addition strictly raises both endpoint utilities,
    each utility recomputed by BFS in the tree with the edge added."""
    adj = adjacency(n, tree_edges)
    in_tree = set(tree_edges)
    before = [_endpoint(adj, v) for v in range(n)]
    found = []
    for u, v in host_edges:
        if (u, v) in in_tree:
            continue
        adj[u].add(v)
        adj[v].add(u)
        after_u, after_v = _endpoint(adj, u), _endpoint(adj, v)
        adj[u].discard(v)
        adj[v].discard(u)
        if _utility(alpha, after_u) > _utility(alpha, before[u]) and _utility(
            alpha, after_v
        ) > _utility(alpha, before[v]):
            found.append((u, v))
    return found


def check_tree(n, host_edges, tree):
    """Problems with one SMRCST output on host (n, host_edges)."""
    m = len(host_edges)
    where = f"smrcst n={n} m={m} pivot={tree['pivot']}"
    edges = sorted({(min(u, v), max(u, v)) for u, v in tree["edges"]})
    if len(edges) != n - 1 or len(tree["edges"]) != n - 1:
        return [f"{where}: {len(tree['edges'])} edges, not a spanning tree on {n} nodes"]
    stray = set(edges) - set(host_edges)
    if stray:
        return [f"{where}: edges {sorted(stray)[:3]} are not host edges"]
    rows = distance_rows(n, edges)
    if rows is None:
        return [f"{where}: the tree is disconnected"]
    problems = []
    rc = sum(map(sum, rows))
    if tree["routing_cost"] != rc:
        problems.append(f"{where}: routing cost {tree['routing_cost']}, recomputed {rc}")
    l = tree["seed_path_length"]
    if not 1 <= l <= n - 1 or l * n < m or 9 * rc < n * l * l:
        problems.append(f"{where}: seed path length {l} breaks l*n >= m or 9*rc >= n*l^2 (rc={rc})")
    swaps = improving_swaps(n, edges, rows, host_edges)
    if swaps:
        problems.append(f"{where}: {len(swaps)} improving swaps, e.g. {swaps[0]}")
    # a tree has no legal removal, so only additions can break stability
    gains = addition_gains(n, edges, host_edges, Fraction(n, 3))
    if gains:
        problems.append(f"{where}: not pairwise stable at n/3, both endpoints gain from {gains[0]}")
    if tree["swap_maximal"] is not True or tree["stable"] is not True:
        problems.append(f"{where}: program reports swap_maximal={tree['swap_maximal']} stable={tree['stable']}")
    return problems


def check_poly(hosts, outputs):
    problems = []
    trees = outputs["trees"]
    if len(trees) != 2 * len(hosts):
        problems.append(f"poly: {len(trees)} trees for {len(hosts)} hosts and two pivots")
    for i, tree in enumerate(trees):
        n, host_edges = hosts[i // 2]
        problems += check_tree(n, host_edges, tree)
    for report in outputs["campaigns"]:
        problems += check_campaign(report)
    return problems


# ---------------------------------------------------------------------------
# cycle


def _key(state_edges):
    return frozenset((min(u, v), max(u, v)) for u, v in state_edges)


def _node_utility(n, edges, v, alpha):
    part = _endpoint(adjacency(n, edges), v)
    return None if part is None else _utility(alpha, part)


def check_cycle(n, alpha, outputs):
    """Replay the returned trajectory on K_n with utilities from scratch."""
    if outputs["code"] != 0:
        return [f"cycle: exit code {outputs['code']}"]
    outcome = outputs["outcome"]
    if outcome is None or outcome["terminal"] != "cycle":
        return ["cycle: no improving cycle returned"]
    steps = outcome["steps"]
    start = outcome["cycle_start"]
    if outcome["n"] != n or not steps or not isinstance(start, int) or not 0 <= start < len(steps):
        return [f"cycle: malformed outcome (n={outcome['n']}, {len(steps)} steps, cycle_start={start})"]
    host = {(u, v) for u in range(n) for v in range(u + 1, n)}
    state = _key(steps[0]["state"])
    for i, step in enumerate(steps):
        if _key(step["state"]) != state:
            return [f"cycle: step {i} state differs from the replay"]
        kind, u, v = step["move"]
        e = (min(u, v), max(u, v))
        if kind == "add" and e in host and e not in state:
            new = state | {e}
        elif kind == "remove" and e in state:
            new = state - {e}
        else:
            return [f"cycle: step {i} move {kind} {u} {v} is not applicable"]
        before = [_node_utility(n, state, w, alpha) for w in e]
        after = [_node_utility(n, new, w, alpha) for w in e]
        if None in before or None in after:
            return [f"cycle: step {i} move {kind} {u} {v} leaves a disconnected state"]
        gains = [a > b for a, b in zip(after, before)]
        if not (all(gains) if kind == "add" else any(gains)):
            return [f"cycle: step {i} move {kind} {u} {v} is not improving"]
        state = new
    problems = []
    if state != _key(steps[start]["state"]) or state != _key(outcome["final_state"]):
        problems.append(f"cycle: the replay does not return to the state at cycle_start {start}")
    moves = [f"{kind} {u} {v}" for kind, u, v in (s["move"] for s in steps)]
    try:
        payload = json.loads(outputs["stdout"].splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        payload = None
    if payload != {"found": True, "steps": len(steps), "cycle_start": start, "moves": moves}:
        problems.append("cycle: printed output disagrees with the returned trajectory")
    return problems
