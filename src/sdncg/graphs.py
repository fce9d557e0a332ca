"""Host graphs, game states, and exact distance machinery.

Nodes are dense integers ``0..n-1``. Every distance quantity in this module
is an exact integer; nothing here touches floating point. ``HostGraph`` and
``DistanceTable`` are immutable after construction and safe for concurrent
reads; ``GameState`` is a cheap value object that may be copied across
workers.

Adjacency is kept both as neighbor sets and as per-node bitmasks. Python
integers are unbounded, so the bitmask path is exact at every size and is
the one used by the hot loops (BFS, connectivity, subtree bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import StructureError

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered node pair to ``(min, max)`` form."""
    if u == v:
        raise StructureError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


def _neighbor_masks(n: int, edges: Iterable[Edge]) -> list[int]:
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def _bfs_reach(nbr, start: int) -> int:
    """Bitmask of all nodes reachable from ``start``."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= nbr[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _bfs_distance_sum(nbr, src: int):
    """Return ``(sum of hop distances from src, bitmask of reached nodes)``."""
    seen = 1 << src
    frontier = seen
    total = 0
    d = 0
    while frontier:
        d += 1
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= nbr[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        if frontier:
            total += d * frontier.bit_count()
            seen |= frontier
    return total, seen


def _bfs_row(nbr, src: int, n: int):
    """One row of the distance matrix plus the reached-node mask."""
    row = [0] * n
    seen = 1 << src
    frontier = seen
    d = 0
    while frontier:
        d += 1
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= nbr[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
        f = frontier
        while f:
            low = f & -f
            row[low.bit_length() - 1] = d
            f ^= low
    return row, seen


class HostGraph:
    """Immutable connected undirected graph: the universe of permitted edges.

    Instances compare and hash by their labeled edge set, so they can key
    dictionaries (state keys pair a host with an edge bitmask).
    """

    __slots__ = ("n", "edges", "adj", "adj_mask", "edge_index", "_hash")

    def __init__(self, n: int, edges: Iterable) -> None:
        if n < 2:
            raise StructureError(f"need at least 2 nodes, got {n}")
        raw = [edge(u, v) for u, v in edges]
        norm = sorted(set(raw))
        if len(norm) != len(raw):
            raise StructureError("duplicate edges in input")
        for u, v in norm:
            if u < 0 or v >= n:
                raise StructureError(f"edge ({u}, {v}) out of range for n={n}")
        # too few edges to connect n nodes: refuse before allocating per-node data
        if len(norm) < n - 1:
            raise StructureError("host graph must be connected")
        self.n = n
        self.edges = tuple(norm)
        adj = [set() for _ in range(n)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(s) for s in adj)
        self.adj_mask = tuple(_neighbor_masks(n, norm))
        self.edge_index = {e: i for i, e in enumerate(norm)}
        if _bfs_reach(self.adj_mask, 0) != (1 << n) - 1:
            raise StructureError("host graph must be connected")
        self._hash = hash((n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edge_index

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other):
        return (
            isinstance(other, HostGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"HostGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DistanceTable:
    """Exact all-pairs hop distances with cached row sums.

    ``total`` is the ordered sum d(V, V), i.e. every unordered pair counts
    twice, so it is always even.
    """

    dist: tuple
    per_node_sum: tuple
    total: int


class GameState:
    """A connected spanning subnetwork of a host, stored as an edge subset.

    The distance table and adjacency bitmasks are computed lazily and cached
    on the instance; states themselves are treated as immutable values.
    """

    def __init__(self, host: HostGraph, active: Iterable) -> None:
        self.host = host
        acts = frozenset(edge(u, v) for u, v in active)
        idx = host.edge_index
        mask = 0
        for e in acts:
            i = idx.get(e)
            if i is None:
                raise StructureError(f"edge {e} not in host")
            mask |= 1 << i
        self.active = acts
        self.mask = mask
        nbr = _neighbor_masks(host.n, acts)
        if _bfs_reach(nbr, 0) != (1 << host.n) - 1:
            raise StructureError("state must be connected and span all nodes")
        self.__dict__["adjacency_masks"] = tuple(nbr)

    @classmethod
    def _unchecked(cls, host: HostGraph, active: frozenset, mask: int) -> "GameState":
        # fast path for callers that already guarantee validity
        st = cls.__new__(cls)
        st.host = host
        st.active = active
        st.mask = mask
        return st

    @classmethod
    def _from_mask(cls, host: HostGraph, mask: int) -> "GameState":
        edges = host.edges
        active = []
        mm = mask
        while mm:
            low = mm & -mm
            active.append(edges[low.bit_length() - 1])
            mm ^= low
        return cls._unchecked(host, frozenset(active), mask)

    @cached_property
    def adjacency_masks(self):
        return tuple(_neighbor_masks(self.host.n, self.active))

    @cached_property
    def table(self) -> DistanceTable:
        return bfs_all_pairs(self)

    @property
    def m(self) -> int:
        return len(self.active)

    @property
    def is_tree(self) -> bool:
        return len(self.active) == self.host.n - 1

    def degree(self, v: int) -> int:
        return self.adjacency_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.active

    def __eq__(self, other):
        return (
            isinstance(other, GameState)
            and self.mask == other.mask
            and self.host == other.host
        )

    def __hash__(self):
        return hash((self.host, self.mask))

    def __repr__(self):
        return f"GameState(n={self.host.n}, active={len(self.active)})"


def full_state(host: HostGraph) -> GameState:
    """The state that activates every host edge."""
    return GameState._unchecked(host, frozenset(host.edges), (1 << host.m) - 1)


def bfs_all_pairs(state: GameState) -> DistanceTable:
    """Exact all-pairs distances of a state.

    Defensive about disconnection even though validated states are always
    connected (unchecked fast-path constructions funnel through here).
    """
    n = state.host.n
    nbr = state.adjacency_masks
    full = (1 << n) - 1
    rows = []
    sums = []
    for src in range(n):
        row, seen = _bfs_row(nbr, src, n)
        if seen != full:
            raise StructureError("state is disconnected")
        rows.append(tuple(row))
        sums.append(sum(row))
    return DistanceTable(tuple(rows), tuple(sums), sum(sums))


def routing_cost(state: GameState) -> int:
    """Total ordered distances d(V, V) of a state (the Wiener index, doubled)."""
    t = state.__dict__.get("table")
    if t is not None:
        return t.total
    n = state.host.n
    nbr = state.adjacency_masks
    full = (1 << n) - 1
    total = 0
    for src in range(n):
        s, seen = _bfs_distance_sum(nbr, src)
        if seen != full:
            raise StructureError("state is disconnected")
        total += s
    return total


def is_bridge(state: GameState, e) -> bool:
    """True iff removing ``e`` disconnects the state."""
    u, v = edge(*e)
    if (u, v) not in state.active:
        raise StructureError(f"edge ({u}, {v}) not active")
    nbr = list(state.adjacency_masks)
    nbr[u] ^= 1 << v
    nbr[v] ^= 1 << u
    return _bfs_reach(nbr, u) != (1 << state.host.n) - 1


def canonical_key(state: GameState):
    """Opaque key equal iff two states share the host and active edge set.

    Labeled equality only; isomorphic but differently labeled states get
    different keys on purpose.
    """
    return (state.host, state.mask)


class TreeScaffold:
    """Rooted spanning tree with the cached data that makes swap evaluation fast.

    ``below_mask`` maps each tree edge to the node mask of the component on
    the child side of that edge; ``subtree_size``, ``down`` (distance sums
    within each subtree) and ``per_node_sum``, together with the tree's
    cached distance table, let a single-swap routing-cost delta be computed
    in O(1).
    """

    __slots__ = (
        "tree",
        "root",
        "parent",
        "depth",
        "order",
        "subtree_size",
        "down",
        "per_node_sum",
        "total",
        "below_mask",
    )

    def __init__(self, tree: GameState) -> None:
        host = tree.host
        n = host.n
        if len(tree.active) != n - 1:
            raise StructureError(
                f"not a spanning tree: {len(tree.active)} edges on {n} nodes"
            )
        nbr = tree.adjacency_masks
        parent = [0] * n
        depth = [0] * n
        order = [0]
        seen = 1
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            f = nbr[v] & ~seen
            seen |= f
            while f:
                low = f & -f
                w = low.bit_length() - 1
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
                f ^= low
        if len(order) != n:
            raise StructureError("not a spanning tree: disconnected")
        size = [1] * n
        smask = [1 << v for v in range(n)]
        down = [0] * n
        for v in reversed(order):
            if v:
                p = parent[v]
                size[p] += size[v]
                smask[p] |= smask[v]
                down[p] += down[v] + size[v]
        total = 0
        pns = [0] * n
        pns[0] = sum(depth)
        below = {}
        for v in order:
            if v:
                total += size[v] * (n - size[v])
                pns[v] = pns[parent[v]] + n - 2 * size[v]
                below[edge(v, parent[v])] = smask[v]
        self.tree = tree
        self.root = 0
        self.parent = tuple(parent)
        self.depth = tuple(depth)
        self.order = tuple(order)
        self.subtree_size = tuple(size)
        self.down = tuple(down)
        self.per_node_sum = tuple(pns)
        self.total = 2 * total
        self.below_mask = below

    def __repr__(self):
        return f"TreeScaffold(n={self.tree.host.n}, cost={self.total})"


def tree_swap_delta(scaffold: TreeScaffold, remove, add) -> int:
    """Exact routing-cost change of ``tree - remove + add`` in O(1).

    Distances inside each of the two components of ``tree - remove`` are
    unchanged by the swap, so only the cross terms move; those reduce to two
    within-component distance sums. In a tree every path from the far side
    enters a component through the cut edge, so each sum is the node's whole
    distance sum minus its cross-cut part, read off the scaffold and the
    tree's distance table (built once per tree, on first use).
    """
    rem = edge(*remove)
    tree = scaffold.tree
    host = tree.host
    if rem not in tree.active:
        raise StructureError(f"edge {rem} not in tree")
    new = edge(*add)
    if new == rem:
        return 0
    if new not in host.edge_index:
        raise StructureError(f"edge {new} not in host")
    if new in tree.active:
        raise StructureError(f"edge {new} already in tree")
    below = scaffold.below_mask[rem]
    x, y = new
    xb = (below >> x) & 1
    if xb == (below >> y) & 1:
        raise StructureError("swap disconnects: replacement edge does not cross the cut")
    u, v = (y, x) if xb else (x, y)  # u on the root side, v in the child component
    a, b = rem
    if (below >> a) & 1:
        a, b = b, a  # a on the root side, b in the child component
    len_b = scaffold.subtree_size[b]
    len_a = host.n - len_b
    pns = scaffold.per_node_sum
    s_b_b = scaffold.down[b]
    s_a_a = pns[a] - len_b - s_b_b
    dist = tree.table.dist
    s_b_v = pns[v] - len_a * (dist[v][b] + 1) - s_a_a
    s_a_u = pns[u] - len_b * (dist[u][a] + 1) - s_b_b
    return 2 * (len_b * (s_a_u - s_a_a) + len_a * (s_b_v - s_b_b))
