"""Independent reference implementations used as test oracles.

Everything here recomputes from scratch with plain data structures (dict
adjacency, Floyd-Warshall, itertools subsets, fraction Gaussian
elimination) so that agreement with the package is meaningful.
"""

from fractions import Fraction
from itertools import combinations


def adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_row(n, edges, src):
    """Plain queue BFS; unreachable nodes get None."""
    adj = adjacency(n, edges)
    dist = {src: 0}
    queue = [src]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in sorted(adj[v]):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return [dist.get(v) for v in range(n)]


def distance_sums(n, edges):
    """(per-node sums, ordered total); raises if disconnected."""
    sums = []
    for src in range(n):
        row = bfs_row(n, edges, src)
        if any(d is None for d in row):
            raise ValueError("disconnected")
        sums.append(sum(row))
    return sums, sum(sums)


def floyd_warshall(n, edges):
    big = 10 * n + 10
    dist = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik >= big:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def is_connected(n, edges):
    if n == 0:
        return True
    return all(d is not None for d in bfs_row(n, edges, 0))


def utility(n, edges, v, alpha):
    row = bfs_row(n, edges, v)
    deg = sum(1 for e in edges if v in e)
    return Fraction(alpha) * deg + sum(row)


def welfare(n, edges, alpha):
    return sum(utility(n, edges, v, alpha) for v in range(n))


def improving_moves(n, host_edges, active, alpha):
    """Brute-force: recompute both endpoint utilities from scratch per move."""
    alpha = Fraction(alpha)
    active = {tuple(sorted(e)) for e in active}
    host = {tuple(sorted(e)) for e in host_edges}
    out = []
    for u, v in sorted(host - active):
        new = active | {(u, v)}
        if utility(n, new, u, alpha) > utility(n, active, u, alpha) and utility(
            n, new, v, alpha
        ) > utility(n, active, v, alpha):
            out.append(("add", u, v))
    for u, v in sorted(active):
        new = active - {(u, v)}
        if not is_connected(n, new):
            continue
        if utility(n, new, u, alpha) > utility(n, active, u, alpha) or utility(
            n, new, v, alpha
        ) > utility(n, active, v, alpha):
            out.append(("remove", u, v))
    return out


def random_spanning_tree(n, edges, rng):
    """A random spanning tree: Kruskal over the edges in shuffled order."""
    edges = sorted(edges)
    rng.shuffle(edges)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = set()
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add((u, v))
    return chosen


def child_side(n, tree_edges, removed):
    """The nodes that ``removed`` cuts off from node 0 in the tree: the
    child side of that edge when the tree is rooted at 0."""
    row = bfs_row(n, [e for e in tree_edges if e != removed], 0)
    return {v for v in range(n) if row[v] is None}


def reference_find_swap(scaffold, pivot):
    """The swap ``spanning._find_swap`` must pick, by recomputing every swap.

    Scans each (tree edge out, host edge in) pair in (sorted tree edge, host
    edge) order, keeps those that leave a spanning tree, and scores each by
    the BFS distance sums of the new tree. "best" keeps the first pair of
    the largest positive gain, "first" returns the first positive one.
    """
    host = scaffold.tree.host
    n = host.n
    tree = set(scaffold.tree.active)
    base = distance_sums(n, tree)[1]
    best_gain, best = 0, None
    for e in sorted(tree):
        for f in host.edges:
            if f in tree:
                continue
            new = (tree - {e}) | {f}
            if not is_connected(n, new):
                continue
            gain = distance_sums(n, new)[1] - base
            if gain > best_gain:
                if pivot == "first":
                    return e, f
                best_gain, best = gain, (e, f)
    return best


def cut_swap(scaffold, b, crossing, floor=0):
    """The first swap at one cut of the tree that changes the routing cost
    by more than ``floor``: ``(j, delta)`` for the lowest host-edge index j
    in the bitmask ``crossing``, or None; one pair at a time.

    The cut removes the tree edge from child ``b`` up to its parent a, and
    ``crossing`` holds host edges with exactly one endpoint in b's subtree.
    With ``floor = -scaffold.total`` it returns the first pair's change,
    since every swapped tree has a positive routing cost. Distances inside
    each side of the cut are unchanged by a swap, and every path from the
    far side enters a side through the cut edge, so for the new edge (u, v),
    u on a's side and v on b's, with L the side sizes, P the per-node
    distance sums and d the tree's distance table,

        delta/2 = L_b*(P[u] - L_b*d(u, a)) + L_a*(P[v] - L_a*d(v, b))
                  - L_b^2 - L_a^2 - n*(P[a] - L_b).

    A node x lies on b's side iff d(x, b) < d(x, a).
    """
    n = scaffold.tree.host.n
    edges = scaffold.tree.host.edges
    a = scaffold.parent[b]
    len_b = scaffold.subtree_size[b]
    len_a = n - len_b
    pns = scaffold.per_node_sum
    dist = scaffold.tree.table.dist
    da, db = dist[a], dist[b]
    base = len_b * len_b + len_a * len_a + n * (pns[a] - len_b)
    for j, (u, v) in enumerate(edges):
        if not (crossing >> j) & 1:
            continue
        if db[u] < da[u]:
            u, v = v, u
        delta = 2 * (len_b * (pns[u] - len_b * da[u]) + len_a * (pns[v] - len_a * db[v]) - base)
        if delta > floor:
            return j, delta
    return None


def spanning_trees_brute(n, edges):
    """All labeled spanning trees via size-(n-1) subsets + connectivity."""
    out = []
    for subset in combinations(sorted(edges), n - 1):
        if is_connected(n, subset):
            out.append(frozenset(subset))
    return out


def forced_path_kruskal(n, edges, path):
    """The tree that takes a simple path's edges, then each host edge in
    sorted order that joins two components (tracked as node sets)."""
    comp = [{v} for v in range(n)]
    chosen = set()
    for u, v in list(zip(path, path[1:])) + sorted(edges):
        if comp[u] is not comp[v]:
            joined = comp[u] | comp[v]
            for x in joined:
                comp[x] = joined
            chosen.add((min(u, v), max(u, v)))
    return frozenset(chosen)


def kirchhoff_count(n, edges):
    """Spanning-tree count by exact determinant of the reduced Laplacian."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    mat = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return abs(det.numerator)


def connected_spanning_subgraphs(n, edges):
    """Every connected spanning edge subset, as frozensets."""
    edges = sorted(edges)
    out = []
    m = len(edges)
    for mask in range(1 << m):
        subset = [edges[i] for i in range(m) if (mask >> i) & 1]
        if len(subset) >= n - 1 and is_connected(n, subset):
            out.append(frozenset(subset))
    return out


def has_improving_cycle(n, alpha):
    """Whether K_n's improving-move graph at alpha has a directed cycle.

    The graph is built from the brute-force ``improving_moves`` above over
    every connected spanning subgraph, and searched by a colour DFS: a cycle
    exists iff some arc reaches a state that is still on the DFS path.
    """
    pairs = list(combinations(range(n), 2))
    arcs = {}
    for active in connected_spanning_subgraphs(n, pairs):
        arcs[active] = [
            active | {(u, v)} if kind == "add" else active - {(u, v)}
            for kind, u, v in improving_moves(n, pairs, active, alpha)
        ]
    WHITE, GREY, BLACK = 0, 1, 2
    colour = dict.fromkeys(arcs, WHITE)
    for root in arcs:
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        stack = [(root, iter(arcs[root]))]
        while stack:
            state, rest = stack[-1]
            for nxt in rest:
                if colour[nxt] == GREY:
                    return True
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(arcs[nxt])))
                    break
            else:
                colour[state] = BLACK
                stack.pop()
    return False


def reference_optimum_and_atlas(n, host_edges, alpha):
    """The optimum and the stable set at one alpha by the per-alpha loop:
    every connected spanning subgraph, its welfare summed from utilities and
    its stability read from the brute-force move list.

    Returns ``(optimum welfare, optimal edge sets, stable edge sets, stable
    welfares)``; the edge sets come in ascending mask order, bit i being the
    i-th host edge in sorted order.
    """
    alpha = Fraction(alpha)
    best = None
    best_sets = []
    stable = []
    welfares = []
    for sub in connected_spanning_subgraphs(n, host_edges):
        w = welfare(n, sub, alpha)
        if best is None or w > best:
            best, best_sets = w, [sub]
        elif w == best:
            best_sets.append(sub)
        if not improving_moves(n, host_edges, sub, alpha):
            stable.append(sub)
            welfares.append(w)
    return best, best_sets, stable, welfares
