"""Host graphs, game states, and exact distance machinery.

Nodes are dense integers ``0..n-1``. Every distance quantity in this module
is an exact integer; nothing here touches floating point. ``HostGraph`` and
``DistanceTable`` are immutable after construction and safe for concurrent
reads; ``GameState`` is a cheap value object that may be copied across
workers.

Adjacency is kept both as neighbor sets and as per-node bitmasks. Python
integers are unbounded, so the bitmask path is exact at every size and is
the one used by the hot loops; ``_bfs`` is the one traversal kernel behind
connectivity, bridges, distance rows and distance sums. A ``GameState``
stores its edge set once, as a bitmask over the host's sorted edge list;
everything else about a state is derived from that mask.
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


def _mask_adjacency(n: int, edges, mask: int) -> list[int]:
    """Per-node neighbor bitmasks of the edges whose bits are set in ``mask``."""
    nbr = [0] * n
    while mask:
        low = mask & -mask
        u, v = edges[low.bit_length() - 1]
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        mask ^= low
    return nbr


def _bfs(nbr, sources: int, allowed: int = -1, row=None):
    """Level-by-level BFS over bitmask adjacency; the one traversal kernel.

    Starts from the node mask ``sources`` (a subset of ``allowed``) at
    distance 0 and never enters a node outside ``allowed``. Returns ``(sum
    of the hop distances of the reached nodes, mask of the reached nodes)``.
    If ``row`` is a list, each node reached beyond the sources gets its
    distance written into it.
    """
    # nodes outside `allowed` start out seen, so no level masks them again
    seen = sources | ~allowed
    frontier = sources
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
            seen |= frontier
            total += d * frontier.bit_count()
            if row is not None:
                f = frontier
                while f:
                    low = f & -f
                    row[low.bit_length() - 1] = d
                    f ^= low
    return total, seen & allowed


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
        self.adj_mask = tuple(_mask_adjacency(n, self.edges, (1 << len(norm)) - 1))
        self.edge_index = {e: i for i, e in enumerate(norm)}
        if _bfs(self.adj_mask, 1)[1] != (1 << n) - 1:
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
    """A connected spanning subnetwork of a host, stored as an edge bitmask.

    ``mask`` has bit i set iff ``host.edges[i]`` is active; it is the one
    stored representation of the edge set. ``active`` (the same set as
    normalized edge pairs), the adjacency bitmasks and the distance table
    are derived from it on first use and cached on the instance; states
    themselves are treated as immutable values.
    """

    def __init__(self, host: HostGraph, active: Iterable) -> None:
        idx = host.edge_index
        mask = 0
        for u, v in active:
            e = edge(u, v)
            i = idx.get(e)
            if i is None:
                raise StructureError(f"edge {e} not in host")
            mask |= 1 << i
        nbr = _mask_adjacency(host.n, host.edges, mask)
        if _bfs(nbr, 1)[1] != (1 << host.n) - 1:
            raise StructureError("state must be connected and span all nodes")
        self.host = host
        self.mask = mask
        self.__dict__["adjacency_masks"] = tuple(nbr)

    @classmethod
    def _from_mask(cls, host: HostGraph, mask: int) -> "GameState":
        # fast path for callers that already guarantee a connected spanning mask
        st = cls.__new__(cls)
        st.host = host
        st.mask = mask
        return st

    @cached_property
    def active(self) -> frozenset:
        mask = self.mask
        return frozenset(e for i, e in enumerate(self.host.edges) if (mask >> i) & 1)

    @cached_property
    def adjacency_masks(self):
        return tuple(_mask_adjacency(self.host.n, self.host.edges, self.mask))

    @cached_property
    def table(self) -> DistanceTable:
        return bfs_all_pairs(self)

    @property
    def m(self) -> int:
        return self.mask.bit_count()

    @property
    def is_tree(self) -> bool:
        return self.mask.bit_count() == self.host.n - 1

    def degree(self, v: int) -> int:
        return self.adjacency_masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        i = self.host.edge_index.get(edge(u, v))
        return i is not None and (self.mask >> i) & 1 == 1

    def __eq__(self, other):
        return (
            isinstance(other, GameState)
            and self.mask == other.mask
            and self.host == other.host
        )

    def __hash__(self):
        return hash((self.host, self.mask))

    def __repr__(self):
        return f"GameState(n={self.host.n}, active={self.m})"


def full_state(host: HostGraph) -> GameState:
    """The state that activates every host edge."""
    return GameState._from_mask(host, (1 << host.m) - 1)


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
        row = [0] * n
        s, seen = _bfs(nbr, 1 << src, row=row)
        if seen != full:
            raise StructureError("state is disconnected")
        rows.append(tuple(row))
        sums.append(s)
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
        s, seen = _bfs(nbr, 1 << src)
        if seen != full:
            raise StructureError("state is disconnected")
        total += s
    return total


def is_bridge(state: GameState, e) -> bool:
    """True iff removing ``e`` disconnects the state."""
    u, v = edge(*e)
    if not state.has_edge(u, v):
        raise StructureError(f"edge ({u}, {v}) not active")
    nbr = list(state.adjacency_masks)
    nbr[u] ^= 1 << v
    nbr[v] ^= 1 << u
    return _bfs(nbr, 1 << u)[1] != (1 << state.host.n) - 1


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
        "parent",
        "depth",
        "subtree_size",
        "down",
        "per_node_sum",
        "total",
        "below_mask",
    )

    def __init__(self, tree: GameState) -> None:
        host = tree.host
        n = host.n
        if tree.m != n - 1:
            raise StructureError(f"not a spanning tree: {tree.m} edges on {n} nodes")
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
        self.parent = tuple(parent)
        self.depth = tuple(depth)
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
    index = host.edge_index
    mask = tree.mask
    i = index.get(rem)
    if i is None or not (mask >> i) & 1:
        raise StructureError(f"edge {rem} not in tree")
    new = edge(*add)
    if new == rem:
        return 0
    j = index.get(new)
    if j is None:
        raise StructureError(f"edge {new} not in host")
    if (mask >> j) & 1:
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
