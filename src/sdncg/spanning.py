"""Spanning-tree routing-cost maximization.

Three layers: a greedy long-path seed with a certified length guarantee, the
swap-improvement loop that turns the seeded tree into a swap-maximal
routing-cost spanning tree, and an exact enumeration oracle for the true
maximum at bounded size. One explicit-stack walk on node-mask components,
``_tree_walk``, lists spanning trees for the oracle; the seed tree is the
one that walk would reach first from the seed path's forest, which
``extend_to_spanning_tree`` builds as the walk's first descent alone. The
swap loop roots each swapped tree once, and that rooting is also the one its
distance table is built from. Both swap-delta formulas live here: the
search's, from depths and distance sums, and the certificate's, per cut
from the tree's distance table. Both score one packed int per side of a
non-tree edge, one W-bit lane per cut of the tree (``_lane_blocks``); the
search walks tree paths instead on hosts where that was measured faster.
``graphs._lane_kit`` packs the lanes, and W is ``graphs._lane_width`` of
8n^3 + 2n^2, twice the largest |v| of any lane (see both formulas): v biased
by 2^(W-1) - 1 stays in [0, 2^W), as does each packed term, so no lane
spills, and its top bit is set iff v > 0. That is 8 bits at n = 2, 16 up to
n = 15, 32 up to 644 and 64 beyond, below 2^52 at ``graphs.MAX_NODES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, mul
from typing import Iterator, Optional

from .errors import BudgetExceededError, CertificateError, ParameterError, StructureError
from .graphs import GameState, HostGraph, TreeScaffold, _lane_kit, _lane_width, edge

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


LANE_BLOCK = 128


def _chords(scaffold: TreeScaffold) -> list:
    """The host edges off the tree, in index order."""
    mask = scaffold.tree.mask
    return [f for i, f in enumerate(scaffold.tree.host.edges) if not (mask >> i) & 1]


def _lane_blocks(scaffold: TreeScaffold, w: int):
    """A tree's lanes, lane k the cut of its k-th edge in host-index order,
    in max(1, (n - 1) // LANE_BLOCK) blocks of near-equal length, under
    2 * LANE_BLOCK lanes and, for n >= 3, at least two.

    Each yields ``(block, lanc, pack, ones, top)``: the children naming its
    cuts in lane order and ``lanc[v]``, the top bits of the block's lanes of
    v and its ancestors, so a block takes O(n * LANE_BLOCK) words. The
    block's cuts that a non-tree edge (x, y) crosses with x below are
    ``lanc[x] ^ (lanc[x] & lanc[y])``.
    """
    parent, order = scaffold.parent, scaffold.order
    index = scaffold.tree.host.edge_index
    nodes = sorted(order[1:], key=lambda c: index[(c, parent[c]) if c < parent[c] else (parent[c], c)])
    blocks = max(1, len(nodes) // LANE_BLOCK)
    for b in range(blocks):
        block = nodes[len(nodes) * b // blocks : len(nodes) * (b + 1) // blocks]
        lanc = [0] * len(order)
        for k, c in enumerate(block):
            lanc[c] = 1 << w * k + w - 1
        for v in order[1:]:
            lanc[v] |= lanc[parent[v]]
        pack, _, ones, top = _lane_kit(len(block), w)
        yield block, lanc, pack, ones, top


def _find_swap(scaffold: TreeScaffold, pivot: str):
    """Best (or first) strictly improving swap, or None when swap-maximal.

    Removing tree edge e and adding host edge f leaves a tree exactly when e
    lies on the tree path of f. For the edge from c up to its parent, with
    s = size[c], x in c's subtree and y outside it, k the tree distance from
    x to y, d the depths and P the per-node distance sums, the swap changes
    the routing cost by 2v, where

        v = s*(P[y] - P[x]) + n*(P[x] - P[parent c])
            + n*(n - 2s)*(d[c] - d[x] - 1) - s^2*(k + 1) + n*s.

    With one lane per c (``_lane_blocks``), v is far[y] + near[x] - s^2*(k
    + 1) lane by lane, far[y] = s*P[y] and near[x] = (n - s)*P[x] - n*(n -
    2s)*(d[x] + 1) + r[c], r[c] = n*((n - 2s)*d[c] + s - P[parent c]), plus
    the lane bias. These rows are packed once per pass for the ends of
    non-tree edges; then an edge costs one multiply, k being its count of
    crossed lanes, and each side two adds and one AND, which leaves the top
    bit set in exactly the crossed lanes whose swap raises the cost. Each
    term of v is at most n^3 in size, for any x, y and c, as |P[u] - P[w]|
    <= n^2 and |n - 2s|, |d[c] - d[x] - 1| and k + 1 are at most n.

    The lanes cost n lanes per end where ``_walk_swap`` costs each non-tree
    edge's tree path. They were measured faster where the tree fits one
    block and the host has at least n non-tree edges (m >= 2n - 1, as on
    ``poly``'s m = 3n hosts), slower on sparser or larger hosts, which walk.

    ``best`` takes the largest change and ``first`` the smallest (e, f) with
    a positive one; ties go to the smallest (e, f). Lanes follow e and host
    edges are sorted, so only lanes need comparing, and only flagged lanes
    are decoded. ``first`` masks out every lane at or above its pick, so it
    decodes at most one lane per side and skips an edge with none below.
    """
    n = scaffold.tree.host.n
    chords = _chords(scaffold)
    if len(chords) < n or n > 2 * LANE_BLOCK:
        return _walk_swap(scaffold, pivot, chords) if chords else None
    ends = {v for f in chords for v in f}
    parent, depth, size, pns = scaffold.parent, scaffold.depth, scaffold.subtree_size, scaffold.per_node_sum
    w = _lane_width(8 * n**3 + 2 * n * n)
    nodes, lanc, pack, ones, top = next(_lane_blocks(scaffold, w))
    bias, lane_mask = (1 << w - 1) - 1, (1 << w) - 1
    s = pack([size[c] for c in nodes])
    s2 = pack([size[c] * size[c] for c in nodes])
    r = pack([n * ((n - 2 * size[c]) * depth[c] + size[c] - pns[parent[c]]) + bias for c in nodes])
    rest = n * ones - s
    n2s = n * (rest - s)
    far = {v: s * pns[v] for v in ends}
    near = {v: rest * pns[v] - n2s * (depth[v] + 1) + r for v in ends}
    first = pivot == FIRST_SWAP
    best_delta, best_lane, best_f, below = 0, n, None, top
    for f in chords:
        x, y = f
        lx, ly = lanc[x], lanc[y]
        cut = lx ^ ly
        if not cut & below:
            continue
        sk = s2 * (cut.bit_count() + 1)
        vx = far[y] + near[x] - sk
        vy = far[x] + near[y] - sk
        hits = (vx & lx | vy & ly) & cut & below
        if first and hits:
            low = hits & -hits
            best_lane, best_f = low.bit_length() // w - 1, f
            below = top & (low - 1)
            continue
        while hits:
            low = hits & -hits
            hits ^= low
            k = low.bit_length() // w - 1
            delta = ((vx if low & lx else vy) >> w * k & lane_mask) - bias
            if delta > best_delta or (delta == best_delta and k < best_lane):
                best_delta, best_lane, best_f = delta, k, f
    if best_f is None:
        return None
    c = nodes[best_lane]
    return edge(c, parent[c]), best_f


def _walk_swap(scaffold: TreeScaffold, pivot: str, chords):
    """``_find_swap`` by walking each non-tree edge's tree path.

    Each non-tree edge f = (x, y) walks up to the lowest common ancestor of
    x and y, whose depth is read off ``anc``, the node masks of each node
    and its ancestors, and scores each tree edge on the way in O(1). In
    ``_find_swap``'s v, written as a quadratic in s, v = s*(c1 - s*(k+1)) +
    r[c] - t, where t = n*(n*(d[x] + 1) - P[x]) and c1 = P[y] + 2n*(d[x] +
    1) - P[x] depend only on the side. Once ``first`` holds a pick, only
    tree edges below it can win, so it scores no other.
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
    best_delta = 0
    best_e = limit = host.m
    best_f = None
    for f in chords:
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


def smrcst_certificates(result: SmrcstResult, host: HostGraph) -> dict:
    """Re-verify every guarantee attached to a swap-maximal tree.

    Checks that the claimed routing cost is the tree's, the seeded distance
    lower bound 9*routing_cost >= n*l^2, the iteration bound (n-1)n(n+1)/3,
    and swap-maximality by a full rescan. Raises CertificateError naming the
    violated inequality, and ParameterError when the result's tree spans
    another host. The welfare ratio against the optimum is
    ``analysis.approximation_report``'s check.

    The rescan scores every crossing pair by the cut's own formula, apart
    from the search: its distances d come from the tree's distance table
    (cached on the state, and read again by a later stability check), not
    from depths. Distances inside each side of a cut do not change, and
    every path from the far side enters a side through the cut edge, so for
    the cut from child c up to a, with s = size[c], x on c's side and y on
    a's, the swap raises the routing cost iff

        s*(P[y] - s*d(y, a)) + (n - s)*(P[x] - (n - s)*d(x, c))
            > s^2 + (n - s)^2 + n*(P[a] - s).

    On ``_lane_blocks``'s layout, two rows per end v of a non-tree edge,
    s^2*d(v, a) and (n - s)^2*d(v, c), are packed once per block; then each
    side of a non-tree edge costs one add and one AND, and a flagged lane is
    a violation. For any x, y and lane the left side less the right lies in
    [-3n^3/2, n^3/2 + n^2], within the swap lanes' bound. The
    error names the smallest (tree edge, host edge) pair by index.
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
    chords = _chords(scaffold)
    ends = {v for f in chords for v in f}
    parent, pns, size_of = scaffold.parent, scaffold.per_node_sum, scaffold.subtree_size
    w = _lane_width(8 * n**3 + 2 * n * n)
    for block, lanc, pack, ones, top in _lane_blocks(scaffold, w) if chords else ():
        dist = scaffold.tree.table.dist
        size, ups = [size_of[c] for c in block], [parent[c] for c in block]
        sq, rest_sq = [t * t for t in size], [(n - t) ** 2 for t in size]
        s = pack(size)
        rest = n * ones - s
        bias = top - ones - pack([q + r + n * (pns[a] - t) for q, r, a, t in zip(sq, rest_sq, ups, size)])
        at_a, at_c = itemgetter(*ups), itemgetter(*block)
        far = {v: s * pns[v] - pack(map(mul, sq, at_a(dist[v]))) for v in ends}
        near = {v: rest * pns[v] - pack(map(mul, rest_sq, at_c(dist[v]))) + bias for v in ends}
        below, bad = top, None
        for x, y in chords:
            lx, ly = lanc[x], lanc[y]
            cut = lx ^ ly
            hits = ((far[y] + near[x]) & lx & cut | (far[x] + near[y]) & ly & cut) & below
            if hits:
                low = hits & -hits
                below = top & (low - 1)
                bad = block[low.bit_length() // w - 1], (x, y)
        if bad:
            c, f = bad
            raise CertificateError(
                f"swap-maximality violated: improving swap ({edge(c, parent[c])}, {f})"
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
