"""Host graphs, game states, and exact distance machinery.

Nodes are dense integers ``0..n-1``. Every distance quantity in this module
is an exact integer; nothing here touches floating point. ``HostGraph`` and
a state's distance table are immutable after construction and safe for
concurrent reads; ``GameState`` is a cheap value object that may be copied
across workers, equal and hashed by ``(host, mask)``.

Adjacency is kept as per-node bitmasks. Python integers are unbounded, so
they are exact at every size; ``_bfs`` is the one traversal kernel behind
connectivity, bridges, distance sums and the distance rows of states with
cycles. A spanning tree's table needs no BFS: ``_rooted`` roots it once,
and each row follows from its parent's row. A ``TreeScaffold`` holds that
same rooting and the tree's total and nothing else, so a swap that yields a
new tree roots it once. ``DistanceTable.lanes`` packs
each row into one int, which the addition scan reads lane-wise. Every
packed lane in the package, distance rows, census blocks and swap lanes,
takes its width from ``_lane_width`` and its constants, pack and unpack
from ``_lane_kit``. A
``GameState`` stores its edge set once, as a bitmask over the host's sorted
edge list; everything else about a state is derived from that mask.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .errors import StructureError

Edge = tuple[int, int]

# The largest host: hypercube(16), 65,536 nodes and 524,288 edges. Nodes are
# capped as well as edges, since each node's neighbour bitmask is as wide as
# its largest neighbour label: a path on the edge cap's 524,289 nodes would
# hold about 17 GB of masks.
MAX_NODES = 1 << 16
MAX_EDGES = 16 << 15


def _check_cap(n: int, m: int) -> None:
    """Refuse a host above ``MAX_NODES`` nodes or ``MAX_EDGES`` edges."""
    if n > MAX_NODES or m > MAX_EDGES:
        raise StructureError(
            f"{n} nodes and {m} edges are above the cap of {MAX_NODES} nodes and {MAX_EDGES} edges"
        )


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


def _lane_width(bound: int) -> int:
    """The least of 8, 16, 32 and 64 bits W with ``bound`` below 2^(W-1) - 1:
    the one width rule of packed lanes. Distance lanes pass n(n - 1)/2, so
    no distance or distance sum of a connected state on n nodes reaches the
    lane's top (guard) bit; swap lanes pass twice their bound on |v|."""
    w = 8
    while bound >= (1 << w - 1) - 1:
        w *= 2
    return w


@lru_cache(maxsize=128)
def _lane_kit(count: int, w: int) -> tuple:
    """``(pack, unpack, ones, guard)`` for ``count`` lanes of W bits, lane k
    at 2^(Wk), built once per (count, W), W one of 8, 16, 32 and 64: the one
    code that knows a lane's byte format. ``pack`` refuses a value outside
    [0, 2^W), ``unpack`` gives the lanes lowest first, and ``ones`` and
    ``guard`` hold 1 and the top bit 2^(W-1) in every lane."""
    fmt = struct.Struct(f"<{count}{'BHIQ'[w.bit_length() - 4]}")
    ones = ((1 << w * count) - 1) // ((1 << w) - 1)
    return (
        lambda values: int.from_bytes(fmt.pack(*values), "little"),
        lambda x: fmt.unpack(x.to_bytes(fmt.size, "little")),
        ones,
        ones << w - 1,
    )


def _bfs(nbr, sources: int, row=None):
    """Level-by-level BFS over bitmask adjacency; the one traversal kernel.

    Starts from the node mask ``sources`` at distance 0. Returns ``(sum of
    the hop distances of the reached nodes, mask of the reached nodes)``.
    If ``row`` is a list, each node reached beyond the sources gets its
    distance written into it.
    """
    seen = sources
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
    return total, seen


def _rooted(nbr, n: int) -> tuple:
    """Root the tree in ``nbr`` at node 0: ``(parent, depth, order, size, sums)``.

    ``order`` is a depth-first preorder with children pushed in ascending
    label order, so node ``order[i]``'s subtree is the slice ``order[i : i +
    size[order[i]]]``. ``sums`` are the per-node distance sums: a child c is
    one step nearer than its parent to the size[c] nodes of its subtree and
    one step farther from the others. The preorder holds only the nodes
    reached from 0: on n - 1 edges that do not connect all n nodes it is
    shorter than n, and the other tuples are then meaningless.
    """
    parent = [0] * n
    depth = [0] * n
    order = []
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        f = nbr[v] & ~seen
        seen |= f
        d = depth[v] + 1
        while f:
            low = f & -f
            w = low.bit_length() - 1
            parent[w] = v
            depth[w] = d
            stack.append(w)
            f ^= low
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    sums = [0] * n
    sums[0] = sum(depth)
    for v in order[1:]:
        sums[v] = sums[parent[v]] + n - 2 * size[v]
    return tuple(parent), tuple(depth), tuple(order), tuple(size), tuple(sums)


class HostGraph:
    """Immutable connected undirected graph: the universe of permitted edges.

    Instances compare and hash by their labeled edge set, so they can key
    dictionaries (state keys pair a host with an edge bitmask). A host above
    ``MAX_NODES`` nodes or ``MAX_EDGES`` edges is refused before any
    per-node mask is built.
    """

    __slots__ = ("n", "edges", "adj_mask", "edge_index", "_hash")

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
        _check_cap(n, len(norm))
        adj = [0] * n
        for u, v in norm:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges = tuple(norm)
        self.adj_mask = tuple(adj)
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
        return self.adj_mask[v].bit_count()

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

    @cached_property
    def lanes(self) -> tuple:
        """Each row as one int, d(u, x) in lane x of ``_lane_width(n(n - 1)/2)`` bits."""
        n = len(self.dist)
        return tuple(map(_lane_kit(n, _lane_width(n * (n - 1) // 2))[0], self.dist))


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
        nbr = [0] * host.n
        for u, v in active:
            e = edge(u, v)
            i = idx.get(e)
            if i is None:
                raise StructureError(f"edge {e} not in host")
            mask |= 1 << i
            a, b = e
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a
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

    @cached_property
    def _rooting(self) -> tuple:
        # a tree's rooting at 0 (``_rooted``), read by its scaffold and its table
        return _rooted(self.adjacency_masks, self.host.n)

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
    """The state that activates every host edge; its adjacency is the host's."""
    st = GameState._from_mask(host, (1 << host.m) - 1)
    st.__dict__["adjacency_masks"] = host.adj_mask
    return st


def bfs_all_pairs(state: GameState) -> DistanceTable:
    """Exact all-pairs distances of a state.

    Defensive about disconnection even though validated states are always
    connected (unchecked fast-path constructions funnel through here). A
    state with n - 1 edges is connected only as a spanning tree, whose
    table ``_tree_table`` builds without BFS from the state's rooting, the
    one its ``TreeScaffold`` reads.
    """
    n = state.host.n
    nbr = state.adjacency_masks
    if state.is_tree:
        return _tree_table(state._rooting)
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


def _tree_table(rooting: tuple) -> DistanceTable:
    """All-pairs distances of a spanning tree from its rooting, row from row.

    Rooted at 0 (``_rooted``), a child c is one step nearer than its parent
    to every node of its subtree and one step farther from every other
    node. Rows are built packed (``DistanceTable.lanes``): c's row is its
    parent's plus 1 in every lane and minus 2 in the lanes of c's subtree,
    whose lane mask the reverse preorder sums up. No lane goes below 0, so
    nothing borrows across lanes, and each row unpacks to its tuple in one
    call; the table keeps the packed rows.
    """
    parent, depth, order, size, sums = rooting
    n = len(parent)
    if len(order) != n:
        raise StructureError("state is disconnected")
    w = _lane_width(n * (n - 1) // 2)
    pack, unpack, ones, _ = _lane_kit(n, w)
    sub = [1 << w * x for x in range(n)]
    for v in reversed(order[1:]):
        sub[parent[v]] += sub[v]
    rows = [0] * n
    rows[0] = pack(depth)
    for c in order[1:]:
        rows[c] = rows[parent[c]] + ones - 2 * sub[c]
    table = DistanceTable(tuple(map(unpack, rows)), sums, sum(sums))
    table.__dict__["lanes"] = tuple(rows)
    return table


def routing_cost(state: GameState) -> int:
    """Total ordered distances d(V, V) of a state (the Wiener index, doubled)."""
    return state.table.total


def is_bridge(state: GameState, e) -> bool:
    """True iff removing ``e`` disconnects the state."""
    u, v = edge(*e)
    if not state.has_edge(u, v):
        raise StructureError(f"edge ({u}, {v}) not active")
    nbr = list(state.adjacency_masks)
    nbr[u] ^= 1 << v
    nbr[v] ^= 1 << u
    return _bfs(nbr, 1 << u)[1] != (1 << state.host.n) - 1


class TreeScaffold:
    """Rooted spanning tree with the cached data that makes swap evaluation fast.

    Rooted at node 0. ``subtree_size`` and ``per_node_sum``, together with
    the tree's cached distance table, let a single-swap routing-cost delta
    be computed in O(1). ``order`` is a preorder: every node comes after its
    parent. The rooting is the tree state's own (``GameState._rooting``), so
    the state's table roots nothing again, and a scaffold depends only on
    its tree.
    """

    __slots__ = ("tree", "parent", "depth", "order", "subtree_size", "per_node_sum", "total")

    def __init__(self, tree: GameState) -> None:
        n = tree.host.n
        if tree.m != n - 1:
            raise StructureError(f"not a spanning tree: {tree.m} edges on {n} nodes")
        rooting = tree._rooting
        if len(rooting[2]) != n:
            raise StructureError("not a spanning tree: disconnected")
        self.tree = tree
        self.parent, self.depth, self.order, self.subtree_size, self.per_node_sum = rooting
        self.total = sum(self.per_node_sum)

    def _swapped(self, e: Edge, f: Edge) -> "TreeScaffold":
        """The scaffold of this tree minus tree edge ``e`` plus host edge
        ``f``, which must cross e's cut (else StructureError). The new
        tree's adjacency is this one's with the four bits of e and f
        flipped; the new tree is rooted from scratch."""
        tree = self.tree
        host = tree.host
        (a, b), (x, y) = edge(*e), edge(*f)
        index = host.edge_index
        st = GameState._from_mask(host, tree.mask ^ (1 << index[a, b]) ^ (1 << index[x, y]))
        nbr = list(tree.adjacency_masks)
        nbr[a] ^= 1 << b
        nbr[b] ^= 1 << a
        nbr[x] ^= 1 << y
        nbr[y] ^= 1 << x
        st.__dict__["adjacency_masks"] = tuple(nbr)
        return TreeScaffold(st)

    def __repr__(self):
        return f"TreeScaffold(n={self.tree.host.n}, cost={self.total})"
