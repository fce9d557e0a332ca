"""Spanning-tree routing-cost maximization.

Three layers: a greedy long-path seed with a certified length guarantee, the
swap-improvement loop that turns the seeded tree into a swap-maximal
routing-cost spanning tree, and an exact enumeration oracle for the true
maximum at bounded size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import BudgetExceededError, CertificateError, ParameterError, StructureError
from .graphs import GameState, HostGraph, TreeScaffold, _bfs, edge, tree_swap_delta

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

    The search descends into the first unvisited neighbor, so the stack is
    always the tree path from the root. In a DFS tree of a connected graph
    every edge joins an ancestor to a descendant, so charging each edge to
    its deeper endpoint shows the depth is at least m/n. That makes this an
    unconditional fallback for the long path guarantee.
    """
    n = host.n
    adj = [sorted(host.adj[v]) for v in range(n)]
    best: list[int] = []
    for root in range(n):
        seen = [False] * n
        seen[root] = True
        nxt = [0] * n
        stack = [root]
        while stack:
            v = stack[-1]
            nbrs = adj[v]
            i = nxt[v]
            while i < len(nbrs) and seen[nbrs[i]]:
                i += 1
            nxt[v] = i + 1
            if i == len(nbrs):
                stack.pop()
                continue
            w = nbrs[i]
            seen[w] = True
            stack.append(w)
            if len(stack) > len(best):
                best = list(stack)
    return best


def _exact_longest_path(host: HostGraph, seed: list[int]) -> list[int]:
    """Exact longest simple path by branch and bound (meant for n <= 20).

    Prunes by the size of the unvisited region still reachable from the
    current endpoint; the seed path provides the initial bound.
    """
    n = host.n
    adj_mask = host.adj_mask
    best = list(seed)
    best_len = len(best)
    stack_path: list[int] = []

    def rec(v: int, visited: int) -> None:
        nonlocal best, best_len
        if best_len == n:
            return
        ext = adj_mask[v] & ~visited
        if len(stack_path) > best_len:
            best = list(stack_path)
            best_len = len(best)
        if not ext:
            return
        # the unvisited nodes still reachable from v bound any extension
        if len(stack_path) + _bfs(adj_mask, ext, ~visited)[1].bit_count() <= best_len:
            return
        f = ext
        while f:
            low = f & -f
            w = low.bit_length() - 1
            f ^= low
            stack_path.append(w)
            rec(w, visited | low)
            stack_path.pop()
            if best_len == n:
                return

    for start in range(n):
        if best_len == n:
            break
        stack_path = [start]
        rec(start, 1 << start)
    return best


def greedy_long_path(host: HostGraph) -> list[int]:
    """A simple path whose edge count l satisfies l * n >= m.

    Two-sided greedy: seed at a minimum-degree node, repeatedly step to the
    unvisited neighbor of minimum degree (ties to the smaller label), first
    forward then backward. If the greedy path misses the m/n guarantee the
    exact search takes over for n <= 20 and the DFS-depth fallback beyond.
    """
    n, m = host.n, host.m
    deg = [host.degree(v) for v in range(n)]
    start = min(range(n), key=lambda v: (deg[v], v))
    in_path = [False] * n
    in_path[start] = True
    path = [start]

    def step(v: int) -> Optional[int]:
        cands = [w for w in host.adj[v] if not in_path[w]]
        if not cands:
            return None
        return min(cands, key=lambda w: (deg[w], w))

    while True:
        w = step(path[-1])
        if w is None:
            break
        path.append(w)
        in_path[w] = True
    while True:
        w = step(path[0])
        if w is None:
            break
        path.insert(0, w)
        in_path[w] = True
    if (len(path) - 1) * n < m:
        rescue = _deepest_dfs_path(host)
        if len(rescue) > len(path):
            path = rescue
        if n <= 20:
            path = _exact_longest_path(host, path)
    if (len(path) - 1) * n < m:
        raise CertificateError(
            f"long-path guarantee violated: l*n = {(len(path) - 1) * n} < m = {m}"
        )
    return path


def extend_to_spanning_tree(host: HostGraph, path) -> TreeScaffold:
    """Grow a spanning tree around a simple path, adding host edges in
    lexicographic order whenever they join two components."""
    nodes = list(path)
    if len(set(nodes)) != len(nodes):
        raise StructureError("path repeats a node")
    for v in nodes:
        if not 0 <= v < host.n:
            raise StructureError(f"path node {v} out of range")
    chosen = []
    for a, b in zip(nodes, nodes[1:]):
        e = edge(a, b)
        if e not in host.edge_index:
            raise StructureError(f"path edge {e} not in host")
        chosen.append(e)
    parent = list(range(host.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        return True

    components = host.n
    for a, b in chosen:
        if not union(a, b):
            raise StructureError("path is not simple in the host")
        components -= 1
    for e in host.edges:
        if components == 1:
            break
        if union(*e):
            chosen.append(e)
            components -= 1
    return TreeScaffold(GameState(host, chosen))


def _find_swap(scaffold: TreeScaffold, pivot: str):
    """Best (or first) strictly improving swap, or None when swap-maximal.

    Removing tree edge e and adding host edge f leaves a tree exactly when e
    lies on the tree path of f, so each non-tree edge f = (x, y) walks its
    path up to the lowest common ancestor and scores each tree edge on it in
    O(1). For the edge from c up to its parent, with x in c's subtree,
    s = size[c], o = n - s, j = depth[x] - depth[c], k the tree distance
    from x to y and P the per-node distance sums, the routing-cost change is

        2 * [o*(P[x] - o*(j+1)) + s*(P[y] - s*(k-j)) - n*(P[parent c] - s)]

    and the edges on y's side of the ancestor swap x and y. As a quadratic
    in s this is 2 * [s*(c1 - s*(k+1)) + r[c] - t], where c1 and t depend
    only on f and the side, and r[c] = n*((n - 2s)*depth[c] + s - P[parent c])
    only on c. A pass costs the total tree-path length of the non-tree edges.

    ``best`` takes the largest change and ``first`` the smallest (e, f) with
    a positive one; ties go to the smallest (e, f). Host edges are sorted, so
    f arrives in increasing order and only e needs comparing.
    """
    host = scaffold.tree.host
    n = host.n
    parent = scaffold.parent
    depth = scaffold.depth
    size = scaffold.subtree_size
    pns = scaffold.per_node_sum
    edge_index = host.edge_index
    up = [-1] + [edge_index[edge(c, parent[c])] for c in range(1, n)]
    r = [n * ((n - 2 * size[c]) * depth[c] + size[c] - pns[parent[c]]) for c in range(n)]
    first = pivot == FIRST_SWAP
    tree_mask = scaffold.tree.mask
    best_delta = 0
    best_e = best_f = None
    for i, f in enumerate(host.edges):
        if (tree_mask >> i) & 1:
            continue
        x, y = f
        a, b = x, y
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a = parent[a]
            b = parent[b]
        k1 = depth[x] + depth[y] - 2 * depth[a] + 1
        for near, far in ((x, y), (y, x)):
            j1 = depth[near] + 1
            t = n * (n * j1 - pns[near])
            c1 = pns[far] - pns[near] + 2 * n * j1
            c = near
            while c != a:
                s = size[c]
                delta = s * (c1 - s * k1) + r[c]
                if delta > t:
                    delta = 1 if first else delta - t
                    if delta > best_delta or (delta == best_delta and up[c] < best_e):
                        best_delta = delta
                        best_e = up[c]
                        best_f = f
                c = parent[c]
    if best_e is None:
        return None
    return host.edges[best_e], best_f


def smrcst(host: HostGraph, pivot: str = BEST_SWAP) -> SmrcstResult:
    """Seeded local search to a swap-maximal routing-cost spanning tree.

    Every candidate (tree edge out, crossing host edge in) is examined at
    termination, so the result admits no strictly improving swap. Each
    applied swap raises the routing cost by at least 1, which bounds the
    iteration count by the path cost (n-1)n(n+1)/3. A swap that does not
    raise it is refused with CertificateError, since the loop could
    otherwise run forever.
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
        flip = (1 << host.edge_index[e]) | (1 << host.edge_index[f])
        nxt = TreeScaffold(GameState._from_mask(host, scaffold.tree.mask ^ flip))
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


def _spanning_tree_masks(host: HostGraph, budget: int) -> Iterator[int]:
    """Edge bitmasks of every labeled spanning tree, include-branch first
    over ascending edge indices; raises before the first tree when the
    count passes budget."""
    if _spanning_tree_count(host) > budget:
        raise BudgetExceededError(f"spanning tree count exceeds budget {budget}")
    n = host.n
    m = host.m
    edges = host.edges
    parent = list(range(n))
    size = [1] * n
    undo: list[tuple[int, int]] = []

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        undo.append((ra, rb))
        return True

    def rollback():
        ra, rb = undo.pop()
        size[ra] -= size[rb]
        parent[rb] = rb

    def rec(i: int, mask: int, components: int) -> Iterator[int]:
        if components == 1:
            yield mask
            return
        if m - i < components - 1:
            return
        u, v = edges[i]
        if union(u, v):
            yield from rec(i + 1, mask | (1 << i), components - 1)
            rollback()
        yield from rec(i + 1, mask, components)

    yield from rec(0, 0, n)


def enumerate_spanning_trees(host: HostGraph, budget: int = 10**6) -> Iterator[TreeScaffold]:
    """Stream every labeled spanning tree exactly once (deterministic order).

    Raises BudgetExceededError instead of silently truncating when the tree
    count passes ``budget``.
    """
    for mask in _spanning_tree_masks(host, budget):
        yield TreeScaffold(GameState._from_mask(host, mask))


def mrcst_exact(host: HostGraph, budget: int = 10**6) -> TreeScaffold:
    """Exact maximum routing-cost spanning tree by enumeration.

    Ties break toward the lexicographically smallest edge bitmask.
    """
    best_cost = -1
    best_mask = None
    for mask in _spanning_tree_masks(host, budget):
        cost = TreeScaffold(GameState._from_mask(host, mask)).total
        if cost > best_cost or (cost == best_cost and mask < best_mask):
            best_cost = cost
            best_mask = mask
    return TreeScaffold(GameState._from_mask(host, best_mask))


def find_hamilton_path(host: HostGraph) -> Optional[list[int]]:
    """A Hamilton path of the host, or None. Exact search; small n only."""
    longest = _exact_longest_path(host, _deepest_dfs_path(host))
    if len(longest) == host.n:
        return longest
    return None


def smrcst_certificates(result: SmrcstResult, host: HostGraph) -> dict:
    """Re-verify every guarantee attached to a swap-maximal tree.

    Checks the seeded distance lower bound 9*routing_cost >= n*l^2, the
    iteration bound (n-1)n(n+1)/3, and swap-maximality by a full rescan.
    Raises CertificateError naming the violated inequality. The welfare
    ratio against the optimum is ``analysis.approximation_report``'s check.
    """
    n, m = host.n, host.m
    l = result.seed_path_length
    rc = result.routing_cost
    if 9 * rc < n * l * l:
        raise CertificateError(
            f"distance bound violated: 9*routing_cost = {9 * rc} < n*l^2 = {n * l * l}"
        )
    iteration_bound = (n - 1) * n * (n + 1) // 3
    if result.iterations > iteration_bound:
        raise CertificateError(
            f"iteration bound violated: {result.iterations} > (n-1)n(n+1)/3 = {iteration_bound}"
        )
    # rescan through the single-swap evaluator, independent of the search loop
    scaffold = result.tree
    mask = scaffold.tree.mask
    tree_edges = [e for i, e in enumerate(host.edges) if (mask >> i) & 1]
    non_tree = [f for i, f in enumerate(host.edges) if not (mask >> i) & 1]
    for e in tree_edges:
        below = scaffold.below_mask[e]
        for f in non_tree:
            if ((below >> f[0]) & 1) == (below >> f[1]) & 1:
                continue
            if tree_swap_delta(scaffold, e, f) > 0:
                raise CertificateError(
                    f"swap-maximality violated: improving swap ({e}, {f})"
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
