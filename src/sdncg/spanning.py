"""Spanning-tree routing-cost maximization.

Three layers: a greedy long-path seed with a certified length guarantee, the
swap-improvement loop that turns the seeded tree into a swap-maximal
routing-cost spanning tree, and an exact enumeration oracle for the true
maximum at bounded size. One explicit-stack walk on node-mask components,
``_tree_walk``, lists spanning trees for the oracle; the seed tree is the
one that walk would reach first from the seed path's forest, which
``extend_to_spanning_tree`` builds as the walk's first descent alone. The
swap loop roots each swapped tree once, and that rooting is also the one its
distance table is built from. Both swap-delta formulas live here: the search
scores each pair along a non-tree edge's tree path, and the certificate
rescores every pair by an independent formula per cut of the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import BudgetExceededError, CertificateError, ParameterError, StructureError
from .graphs import GameState, HostGraph, TreeScaffold, edge

BEST_SWAP = "best"
FIRST_SWAP = "first"
PIVOTS = (BEST_SWAP, FIRST_SWAP)


@dataclass(frozen=True)
class SmrcstResult:
    """Output of the swap-maximization loop.

    ``seed_path_length`` is the edge count l of the initial path; the
    certified distance bound is 9 * routing_cost >= n * l^2.
    """

    tree: TreeScaffold
    seed_path_length: int
    iterations: int
    routing_cost: int


def _deepest_dfs_path(host: HostGraph) -> list[int]:
    """Deepest root-to-leaf path over DFS trees from every root.

    The search descends into the lowest unvisited neighbor, so the stack is
    always the tree path from the root. In a DFS tree of a connected graph
    every edge joins an ancestor to a descendant, so charging each edge to
    its deeper endpoint shows the depth is at least m/n. That makes this an
    unconditional fallback for the long path guarantee.
    """
    nbr = host.adj_mask
    best: list[int] = []
    for root in range(host.n):
        seen = 1 << root
        stack = [root]
        while stack:
            f = nbr[stack[-1]] & ~seen
            if not f:
                stack.pop()
                continue
            low = f & -f
            seen |= low
            stack.append(low.bit_length() - 1)
            if len(stack) > len(best):
                best = list(stack)
    return best


def greedy_long_path(host: HostGraph) -> list[int]:
    """A simple path whose edge count l satisfies l * n >= m.

    Two-sided greedy: seed at a minimum-degree node, repeatedly step to the
    unvisited neighbor of minimum degree (ties to the smaller label), first
    forward then backward. If the greedy path misses the m/n guarantee the
    DFS-depth fallback takes over, which always meets it.
    """
    n, m = host.n, host.m
    deg = [host.degree(v) for v in range(n)]
    start = min(range(n), key=lambda v: (deg[v], v))
    in_path = 1 << start
    path = [start]

    def step(v: int) -> Optional[int]:
        # ascending labels, so a strict comparison sends ties to the smaller
        f = host.adj_mask[v] & ~in_path
        w = None
        while f:
            low = f & -f
            x = low.bit_length() - 1
            if w is None or deg[x] < deg[w]:
                w = x
            f ^= low
        return w

    while True:
        w = step(path[-1])
        if w is None:
            break
        path.append(w)
        in_path |= 1 << w
    while True:
        w = step(path[0])
        if w is None:
            break
        path.insert(0, w)
        in_path |= 1 << w
    if (len(path) - 1) * n < m:
        rescue = _deepest_dfs_path(host)
        if len(rescue) > len(path):
            path = rescue
    if (len(path) - 1) * n < m:
        raise CertificateError(
            f"long-path guarantee violated: l*n = {(len(path) - 1) * n} < m = {m}"
        )
    return path


def extend_to_spanning_tree(host: HostGraph, path) -> TreeScaffold:
    """Grow a spanning tree around a simple path, adding host edges in
    lexicographic order whenever they join two components: the tree that
    ``_tree_walk`` would list first if it started from the path's forest.

    The walk reaches that tree without backtracking: it puts in every edge
    that joins two components, and on a connected host the edges after any
    point still join what is left. So only that descent is followed here,
    with each component one member list shared by its nodes and the smaller
    merged into the larger in place, so a node changes lists at most
    log2(n) times, where the walk builds a new n-entry component list per
    edge it puts in.
    """
    nodes = list(path)
    if len(set(nodes)) != len(nodes):
        raise StructureError("path repeats a node")
    for v in nodes:
        if not 0 <= v < host.n:
            raise StructureError(f"path node {v} out of range")
    mask = 0
    for a, b in zip(nodes, nodes[1:]):
        e = edge(a, b)
        if e not in host.edge_index:
            raise StructureError(f"path edge {e} not in host")
        mask |= 1 << host.edge_index[e]
    comp = [[x] for x in range(host.n)]
    for v in nodes:
        comp[v] = nodes
    k = host.n - mask.bit_count()
    for i, (u, v) in enumerate(host.edges):
        if k == 1:
            break
        cu, cv = comp[u], comp[v]
        if cu is not cv:
            if len(cu) < len(cv):
                cu, cv = cv, cu
            cu += cv
            for x in cv:
                comp[x] = cu
            mask |= 1 << i
            k -= 1
    return TreeScaffold(GameState._from_mask(host, mask))


def _find_swap(scaffold: TreeScaffold, pivot: str):
    """Best (or first) strictly improving swap, or None when swap-maximal.

    Removing tree edge e and adding host edge f leaves a tree exactly when e
    lies on the tree path of f, so each non-tree edge f = (x, y) walks its
    path up to the lowest common ancestor and scores each tree edge on it in
    O(1). The ancestor's depth is read off ``anc``, the node masks of each
    node and its ancestors: x and y share exactly the ancestors of their
    lowest common one. For the edge from c up to its parent, with x in c's
    subtree, s = size[c], o = n - s, j = depth[x] - depth[c], k the tree
    distance from x to y and P the per-node distance sums, the routing-cost
    change is

        2 * [o*(P[x] - o*(j+1)) + s*(P[y] - s*(k-j)) - n*(P[parent c] - s)]

    and the edges on y's side of the ancestor swap x and y. As a quadratic
    in s this is 2 * [s*(c1 - s*(k+1)) + r[c] - t], where
    r[c] = n*((n - 2s)*depth[c] + s - P[parent c]) depends only on c, and
    t = n*(n*(depth[x] + 1) - P[x]) and c1 = P[y] + 2n*(depth[x] + 1) - P[x]
    only on the side: t and c1 - P[y] are terms of x alone. Those two terms
    and each node's step up, one tuple (parent-edge index, s, r[c], parent),
    are built once per pass. A pass costs the total tree-path length of the
    non-tree edges.

    ``best`` takes the largest change and ``first`` the smallest (e, f) with
    a positive one; ties go to the smallest (e, f). Host edges are sorted, so
    f arrives in increasing order and only e needs comparing. Once ``first``
    holds a pick, only tree edges below it can win, so it scores no other;
    a pass that finds nothing scores every pair.
    """
    host = scaffold.tree.host
    n = host.n
    parent = scaffold.parent
    depth = scaffold.depth
    pns = scaffold.per_node_sum
    index = host.edge_index
    step = [
        (index[(c, p) if c < p else (p, c)] if c else -1, s, n * ((n - 2 * s) * d + s - pns[p]), p)
        for c, (p, d, s) in enumerate(zip(parent, depth, scaffold.subtree_size))
    ]
    t_of = [n * (n * (d + 1) - p) for d, p in zip(depth, pns)]
    c_of = [2 * n * (d + 1) - p for d, p in zip(depth, pns)]
    anc = [0] * n
    for v in scaffold.order:
        anc[v] = anc[parent[v]] | (1 << v)
    first = pivot == FIRST_SWAP
    tree_mask = scaffold.tree.mask
    best_delta = 0
    best_e = limit = host.m
    best_f = None
    for i, f in enumerate(host.edges):
        if (tree_mask >> i) & 1:
            continue
        x, y = f
        dl = (anc[x] & anc[y]).bit_count() - 1
        dx, dy = depth[x], depth[y]
        k1 = dx + dy - 2 * dl + 1
        for near, c1, steps in ((x, pns[y], dx - dl), (y, pns[x], dy - dl)):
            t = t_of[near]
            c1 += c_of[near]
            c = near
            for _ in range(steps):
                e, s, r, up = step[c]
                if e < limit:
                    delta = s * (c1 - s * k1) + r
                    if delta > t:
                        delta = 1 if first else delta - t
                        if delta > best_delta or (delta == best_delta and e < best_e):
                            best_delta = delta
                            best_e = e
                            best_f = f
                            if first:
                                limit = e
                c = up
    if best_f is None:
        return None
    return host.edges[best_e], best_f


def smrcst(host: HostGraph, pivot: str = BEST_SWAP) -> SmrcstResult:
    """Seeded local search to a swap-maximal routing-cost spanning tree.

    Every candidate (tree edge out, crossing host edge in) is examined at
    termination, so the result admits no strictly improving swap. Each
    applied swap raises the routing cost by at least 1, which bounds the
    iteration count by the path cost (n-1)n(n+1)/3. A swap that does not
    raise it is refused with CertificateError, since the loop could
    otherwise run forever. Each swap gives the next scaffold
    (``TreeScaffold._swapped``), which roots the swapped tree once, and the
    final tree's distance table is built from that rooting.
    """
    if pivot not in PIVOTS:
        raise ParameterError(f"unknown pivot {pivot!r}; pick one of {PIVOTS}")
    seed = greedy_long_path(host)
    scaffold = extend_to_spanning_tree(host, seed)
    iterations = 0
    while True:
        swap = _find_swap(scaffold, pivot)
        if swap is None:
            break
        e, f = swap
        nxt = scaffold._swapped(e, f)
        if nxt.total <= scaffold.total:
            raise CertificateError(
                f"swap ({e}, {f}) does not raise the routing cost: "
                f"{scaffold.total} -> {nxt.total}"
            )
        scaffold = nxt
        iterations += 1
    return SmrcstResult(scaffold, len(seed) - 1, iterations, scaffold.total)


def _spanning_tree_count(host: HostGraph) -> int:
    """Labeled spanning-tree count by the matrix-tree theorem.

    The determinant of the reduced Laplacian, by fraction-free (Bareiss)
    elimination in exact integers. The host is connected, so that matrix is
    positive definite: every pivot is a positive leading minor and no row
    swap is ever needed.
    """
    n = host.n
    lap = [[0] * n for _ in range(n)]
    for u, v in host.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] = lap[v][u] = -1
    mat = [row[1:] for row in lap[1:]]
    size = n - 1
    prev = 1
    for k in range(size - 1):
        pivot_row = mat[k]
        pivot = pivot_row[k]
        for row in mat[k + 1 :]:
            rk = row[k]
            for j in range(k + 1, size):
                row[j] = (pivot * row[j] - rk * pivot_row[j]) // prev
        prev = pivot
    return mat[-1][-1]


def _tree_walk(host: HostGraph) -> Iterator[int]:
    """Edge masks of every spanning tree of the host.

    Include/exclude backtracking (Read & Tarjan 1975) over ascending edge
    indices, depth first, each edge put in before it is left out, so the
    trees come in ascending order of their sorted edge lists. Each stack
    entry holds its forest's mask, ``comp`` (per node x, the node mask of
    x's component) and ``k``, the component count. Edge i is left out only
    while the m - i - 1 edges after it can still join the k components. The
    stack is explicit: no input size limits its depth.
    """
    edges, m, n = host.edges, host.m, host.n
    stack = [(0, 0, [1 << x for x in range(n)], n)]
    while stack:
        i, mask, comp, k = stack.pop()
        if k == 1:
            yield mask
            continue
        u, v = edges[i]
        cu, cv = comp[u], comp[v]
        if m - i - 1 >= k - 1:
            stack.append((i + 1, mask, comp, k))
        if cu != cv:
            joined = cu | cv
            comp = [joined if c == cu or c == cv else c for c in comp]
            stack.append((i + 1, mask | 1 << i, comp, k - 1))


TREE_BUDGET = 10**6


def enumerate_spanning_trees(host: HostGraph, budget: int = TREE_BUDGET) -> Iterator[TreeScaffold]:
    """Stream every labeled spanning tree exactly once, in ascending order of
    their sorted edge lists (``itertools.combinations`` order).

    Raises BudgetExceededError before the first tree, instead of silently
    truncating, when the tree count passes ``budget``. The O(n^3) count is
    taken only when C(m, n-1), never below it, passes the budget too. A
    negative budget raises ParameterError before either count.
    """
    n = host.n
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget}")
    if math.comb(host.m, n - 1) > budget and _spanning_tree_count(host) > budget:
        raise BudgetExceededError(f"spanning tree count exceeds budget {budget}")
    for mask in _tree_walk(host):
        yield TreeScaffold(GameState._from_mask(host, mask))


def mrcst_exact(host: HostGraph, budget: int = TREE_BUDGET) -> TreeScaffold:
    """Exact maximum routing-cost spanning tree by enumerating every tree
    under ``enumerate_spanning_trees``'s budget; ties go to the smallest
    edge bitmask."""
    return max(enumerate_spanning_trees(host, budget), key=lambda sc: (sc.total, -sc.tree.mask))


def _crossing_sets(scaffold: TreeScaffold) -> list[int]:
    """Per node c, the bitmask of non-tree host edges (by index) with exactly
    one endpoint in c's subtree: the crossing set of the cut above c.

    Each node starts with its non-tree incidence mask, and children fold
    into parents by XOR, in reverse preorder. The fold is the XOR over c's
    subtree, in which an edge with both endpoints inside cancels.
    """
    host = scaffold.tree.host
    mask = scaffold.tree.mask
    parent = scaffold.parent
    cross = [0] * host.n
    for i, (x, y) in enumerate(host.edges):
        if not (mask >> i) & 1:
            bit = 1 << i
            cross[x] ^= bit
            cross[y] ^= bit
    for c in reversed(scaffold.order[1:]):
        cross[parent[c]] ^= cross[c]
    return cross


def _cut_swap(scaffold: TreeScaffold, b: int, crossing: int, floor: int = 0):
    """The first swap at one cut of the tree that changes the routing cost
    by more than ``floor``: ``(j, delta)`` for the lowest such index j in
    ``crossing``, or None. No validation.

    The cut removes the tree edge from child ``b`` up to its parent a;
    ``crossing`` is the bitmask of the host edges (by index) with exactly
    one endpoint in b's subtree, scored in ascending j in one loop. With
    ``floor = -scaffold.total`` it returns the first pair's change, since
    every swapped tree has a positive routing cost.

    Distances inside each of the two components of the cut tree are
    unchanged by a swap, so only the cross terms move; those reduce to two
    within-component distance sums. In a tree every path from the far side
    enters a component through the cut edge, so for the new edge (u, v),
    u on a's side and v on b's, with L the component sizes and S the
    within-component sums,

        S(a, u) = P[u] - L_b*(d(u, a) + 1) - S(b, b)
        S(b, v) = P[v] - L_a*(d(v, b) + 1) - S(a, a)
        delta   = 2 * [L_b*(S(a, u) - S(a, a)) + L_a*(S(b, v) - S(b, b))]

    where P is the per-node distance sum and d the tree's distance table
    (built once per tree, on first use). The within-component sums enter
    only as S(a, a) + S(b, b) = P[a] - L_b, since each of the L_b nodes on
    b's side is one step farther from a than from b:

        delta/2 = L_b*(P[u] - L_b*d(u, a)) + L_a*(P[v] - L_a*d(v, b))
                  - L_b^2 - L_a^2 - n*(P[a] - L_b)

    Everything but P[u], P[v] and the two distances is a term of the cut,
    read once. A node x lies on b's side iff d(x, b) < d(x, a). Deltas are
    even, so delta > floor iff delta/2 > floor // 2.
    """
    tree = scaffold.tree
    n = tree.host.n
    edges = tree.host.edges
    a = scaffold.parent[b]
    len_b = scaffold.subtree_size[b]
    len_a = n - len_b
    pns = scaffold.per_node_sum
    dist = tree.table.dist
    da, db = dist[a], dist[b]
    base = len_b * len_b + len_a * len_a + n * (pns[a] - len_b)
    bar = base + floor // 2
    while crossing:
        low = crossing & -crossing
        crossing ^= low
        u, v = edges[low.bit_length() - 1]
        if db[u] < da[u]:
            u, v = v, u
        half = len_b * (pns[u] - len_b * da[u]) + len_a * (pns[v] - len_a * db[v])
        if half > bar:
            return low.bit_length() - 1, 2 * (half - base)
    return None


def smrcst_certificates(result: SmrcstResult, host: HostGraph) -> dict:
    """Re-verify every guarantee attached to a swap-maximal tree.

    Checks that the claimed routing cost is the tree's, the seeded distance
    lower bound 9*routing_cost >= n*l^2, the iteration bound (n-1)n(n+1)/3,
    and swap-maximality by a full rescan. Raises CertificateError naming the
    violated inequality, and ParameterError when the result's tree spans
    another host. The welfare ratio against the optimum is
    ``analysis.approximation_report``'s check.

    The rescan visits only the crossing pairs: ``_crossing_sets`` gives
    every cut's crossing edges in one bottom-up XOR pass, and ``_cut_swap``
    scores a cut's pairs in one loop from terms read once per cut and the
    tree's distance table, independently of the search loop. That
    table is the state's cached one, built once row from row without BFS,
    and a later stability check of the tree reads the same table. Tree
    edges, then crossing edges, go in ascending index order, and the first
    improving pair is named.
    """
    scaffold = result.tree
    if scaffold.tree.host != host:
        raise ParameterError(f"result tree spans another host than {host!r}")
    n, m = host.n, host.m
    l = result.seed_path_length
    rc = result.routing_cost
    if rc != scaffold.total:
        raise CertificateError(
            f"routing cost mismatch: result claims {rc}, tree has {scaffold.total}"
        )
    if 9 * rc < n * l * l:
        raise CertificateError(
            f"distance bound violated: 9*routing_cost = {9 * rc} < n*l^2 = {n * l * l}"
        )
    iteration_bound = (n - 1) * n * (n + 1) // 3
    if result.iterations > iteration_bound:
        raise CertificateError(
            f"iteration bound violated: {result.iterations} > (n-1)n(n+1)/3 = {iteration_bound}"
        )
    edges = host.edges
    mask = scaffold.tree.mask
    depth = scaffold.depth
    cross = _crossing_sets(scaffold)
    for i, (u, v) in enumerate(edges):
        if not (mask >> i) & 1:
            continue
        child = u if depth[u] > depth[v] else v
        found = _cut_swap(scaffold, child, cross[child])
        if found is not None:
            raise CertificateError(
                f"swap-maximality violated: improving swap ({edges[i]}, {edges[found[0]]})"
            )
    return {
        "n": n,
        "m": m,
        "seed_path_length": l,
        "routing_cost": rc,
        "iterations": result.iterations,
        "iteration_bound": iteration_bound,
        "distance_bound_ok": True,
        "swap_maximal": True,
    }
