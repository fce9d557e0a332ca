import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sdncg import (
    GameState,
    HostGraph,
    StructureError,
    TreeScaffold,
    bfs_all_pairs,
    clique,
    cycle,
    edge,
    enumerate_spanning_trees,
    full_state,
    is_bridge,
    path,
    random_connected_host,
    routing_cost,
    smrcst,
    star,
)
from sdncg import graphs


def host_strategy(n_max=7):
    return st.builds(
        lambda n, seed, p: random_connected_host(n, 0.15 + 0.7 * p, random.Random(seed)),
        st.integers(2, n_max),
        st.integers(0, 10**6),
        st.floats(0, 1),
    )


class TestHostGraph:
    def test_basic(self):
        h = HostGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert h.n == 4 and h.m == 3
        assert h.has_edge(1, 0) and not h.has_edge(0, 2)
        assert h.degree(1) == 2
        assert h.adj_mask == (0b10, 0b101, 0b1010, 0b100)

    def test_edge_normalization(self):
        h = HostGraph(3, [(2, 0), (1, 0)])
        assert h.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(StructureError):
            HostGraph(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_duplicates(self):
        with pytest.raises(StructureError):
            HostGraph(3, [(0, 1), (1, 0), (1, 2)])

    def test_size_cap(self):
        # nodes and edges are capped at hypercube(16)'s size, the largest host
        assert (graphs.MAX_NODES, graphs.MAX_EDGES) == (1 << 16, 16 << 15)
        cap = "above the cap of 65536 nodes and 524288 edges"
        star_edges = [(0, v) for v in range(1, graphs.MAX_NODES)]
        assert HostGraph(graphs.MAX_NODES, star_edges).m == graphs.MAX_NODES - 1
        with pytest.raises(StructureError, match=f"^65537 nodes and 65536 edges are {cap}$"):
            HostGraph(graphs.MAX_NODES + 1, star_edges + [(0, graphs.MAX_NODES)])
        # K_1025 has 524,800 edges on few nodes
        with pytest.raises(StructureError, match=f"^1025 nodes and 524800 edges are {cap}$"):
            HostGraph(1025, ((u, v) for u in range(1025) for v in range(u + 1, 1025)))

    def test_rejects_disconnected(self):
        with pytest.raises(StructureError):
            HostGraph(4, [(0, 1), (2, 3)])

    def test_too_few_edges_rejected_before_allocation(self):
        # 100k nodes would need ~20 MB of adjacency sets; the edge count alone
        # already rules the host out
        tracemalloc.start()
        try:
            with pytest.raises(StructureError, match="connected"):
                HostGraph(100_000, [(0, 1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_tiny(self):
        with pytest.raises(StructureError):
            HostGraph(1, [])

    def test_rejects_out_of_range(self):
        with pytest.raises(StructureError):
            HostGraph(3, [(0, 1), (1, 5)])

    def test_value_equality(self):
        a = HostGraph(3, [(0, 1), (1, 2)])
        b = HostGraph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)

    @given(host_strategy())
    @settings(max_examples=40, deadline=None)
    def test_edge_count_bounds(self, h):
        assert h.n - 1 <= h.m <= h.n * (h.n - 1) // 2


class TestOnePassAdjacency:
    """A host's neighbour masks come from its edge list in the pass that
    reads it, and a state built from edges, or from every host edge, gets
    its own the same way: none of them walks an edge mask."""

    FAMILIES = [
        ("path", (5,)),
        ("cycle", (5,)),
        ("star", (5,)),
        ("clique", (5,)),
        ("hypercube", (3,)),
        ("path-clique", (6, 3, 2)),
        ("clique-network", (clique(4), (2, 2, 2, 2))),
        ("star-of-cliques", (14, 2)),
        ("hypercube-clique-network", (12,)),
        ("path-of-cliques", (20, 4)),
        ("wheel-clique-network", (10,)),
    ]

    @pytest.mark.parametrize("family, params", FAMILIES, ids=[f for f, _ in FAMILIES])
    def test_no_mask_walk(self, monkeypatch, family, params):
        from sdncg.constructions import _FAMILY_BUILDERS

        def refuse(*args, **kwargs):
            raise AssertionError("_mask_adjacency called")

        monkeypatch.setattr(graphs, "_mask_adjacency", refuse)
        host = _FAMILY_BUILDERS[family][0](*params)
        full = full_state(host)
        listed = GameState(host, host.edges)
        assert full.adjacency_masks == listed.adjacency_masks == host.adj_mask
        assert full.mask == listed.mask == (1 << host.m) - 1
        assert full.table.total == listed.table.total

    def test_matches_mask_walk(self):
        rng = random.Random(29)
        for _ in range(60):
            host = random_connected_host(rng.randint(2, 16), rng.random(), rng)
            everything = (1 << host.m) - 1
            assert list(host.adj_mask) == graphs._mask_adjacency(host.n, host.edges, everything)
            # a spanning tree plus random host edges, some of them repeated
            tree = oracles.random_spanning_tree(host.n, host.edges, rng)
            st_ = GameState(host, list(tree) + [e for e in host.edges if rng.random() < 0.3])
            assert list(st_.adjacency_masks) == graphs._mask_adjacency(host.n, host.edges, st_.mask)


class TestGameState:
    def test_requires_subset(self):
        h = path(4)
        with pytest.raises(StructureError):
            GameState(h, [(0, 2), (0, 1), (1, 2), (2, 3)])

    def test_requires_spanning_connected(self):
        h = clique(4)
        with pytest.raises(StructureError):
            GameState(h, [(0, 1), (2, 3)])
        with pytest.raises(StructureError):
            GameState(h, [(0, 1), (1, 2)])  # does not span node 3

    def test_mask_is_the_one_edge_set(self):
        rng = random.Random(11)
        for h in (clique(5), cycle(6), random_connected_host(7, 0.6, rng)):
            n = h.n
            for _ in range(8):
                chosen = oracles.random_spanning_tree(n, h.edges, rng)
                chosen |= {e for e in h.edges if rng.random() < 0.4}
                given_pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen]
                st_ = GameState(h, given_pairs)
                assert st_.active == frozenset(chosen)
                again = GameState._from_mask(h, st_.mask)
                assert again.active == st_.active
                assert again.m == st_.m == len(chosen)
                assert again.is_tree == st_.is_tree == (len(chosen) == n - 1)
                for u in range(n):
                    for v in range(n):
                        if u != v:
                            assert again.has_edge(u, v) == st_.has_edge(u, v) == (edge(u, v) in chosen)
                adj = oracles.adjacency(n, chosen)
                want = tuple(sum(1 << w for w in adj[v]) for v in range(n))
                assert again.adjacency_masks == st_.adjacency_masks == want

    def test_mask_round_trip(self):
        h = clique(4)
        st_ = GameState(h, [(0, 1), (1, 2), (2, 3)])
        again = GameState._from_mask(h, st_.mask)
        assert again == st_ and again.active == st_.active


class TestDistances:
    def test_p4_distance_table(self):
        t = bfs_all_pairs(full_state(path(4)))
        assert t.dist[0] == (0, 1, 2, 3)
        assert t.per_node_sum == (6, 4, 4, 6)
        assert t.total == 20

    def test_star_total(self):
        t = bfs_all_pairs(full_state(star(4)))
        assert t.per_node_sum[0] == 3
        assert t.total == 18

    def test_clique_total(self):
        for n in (2, 3, 5, 8):
            assert routing_cost(full_state(clique(n))) == n * (n - 1)

    def test_cycle_totals(self):
        assert routing_cost(full_state(cycle(5))) == 30
        assert routing_cost(full_state(cycle(6))) == 54

    def test_k2(self):
        assert routing_cost(full_state(clique(2))) == 2

    def test_path_and_clique_closed_forms_to_50(self):
        for n in range(2, 51):
            assert routing_cost(full_state(path(n))) == (n - 1) * n * (n + 1) // 3
            assert routing_cost(full_state(clique(n))) == n * (n - 1)

    @given(host_strategy())
    @settings(max_examples=40, deadline=None)
    def test_table_matches_oracle(self, h):
        t = bfs_all_pairs(full_state(h))
        ref = oracles.floyd_warshall(h.n, h.edges)
        for i in range(h.n):
            for j in range(h.n):
                assert t.dist[i][j] == ref[i][j]
                assert t.dist[i][j] == t.dist[j][i]
                if i != j:
                    assert 1 <= t.dist[i][j] <= h.n - 1
        assert t.total == sum(t.per_node_sum)
        assert t.total % 2 == 0

    def test_disconnected_defensive(self):
        h = clique(4)
        mask = (1 << h.edge_index[(0, 1)]) | (1 << h.edge_index[(2, 3)])
        bogus = GameState._from_mask(h, mask)
        with pytest.raises(StructureError):
            bfs_all_pairs(bogus)


class TestTreeScaffold:
    def test_p4_cost(self):
        assert TreeScaffold(full_state(path(4))).total == 20

    def test_star_closed_form(self):
        for n in range(2, 20):
            assert TreeScaffold(full_state(star(n))).total == 2 * (n - 1) ** 2

    def test_p2(self):
        assert TreeScaffold(full_state(path(2))).total == 2

    def test_rejects_non_tree(self):
        with pytest.raises(StructureError):
            TreeScaffold(full_state(cycle(4)))
        # n - 1 edges that close a triangle and leave node 3 alone
        host = clique(4)
        triangle = sum(1 << host.edge_index[e] for e in ((0, 1), (0, 2), (1, 2)))
        with pytest.raises(StructureError, match="^not a spanning tree: disconnected$"):
            TreeScaffold(GameState._from_mask(host, triangle))

    def test_matches_bfs_on_all_spanning_trees(self):
        for host in (clique(5), cycle(6), random_connected_host(7, 0.5, random.Random(7))):
            for sc in enumerate_spanning_trees(host):
                sums, total = oracles.distance_sums(host.n, sc.tree.active)
                assert (sc.per_node_sum, sc.total) == (tuple(sums), total)

    def test_per_node_sums(self):
        sc = TreeScaffold(full_state(star(5)))
        assert sc.per_node_sum == tuple(oracles.distance_sums(5, sc.tree.active)[0])

    def test_order_is_a_preorder(self):
        rng = random.Random(17)
        for n in range(2, 30):
            host = clique(n)
            sc = TreeScaffold(GameState(host, oracles.random_spanning_tree(n, host.edges, rng)))
            assert sorted(sc.order) == list(range(n))
            at = {v: i for i, v in enumerate(sc.order)}
            for i, v in enumerate(sc.order):
                block = sc.order[i : i + sc.subtree_size[v]]
                # the subtree of v is the slice starting at v
                assert all(w == v or at[sc.parent[w]] >= i for w in block)
                assert all(at[sc.parent[w]] < at[w] for w in block if w != v)


SCAFFOLD_FIELDS = ("parent", "depth", "order", "subtree_size", "per_node_sum", "total")


def assert_same_scaffold(got, want):
    """Field by field, plus the tree state's mask, adjacency and rooting."""
    for name in SCAFFOLD_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.tree.mask == want.tree.mask
    host = want.tree.host
    assert list(got.tree.adjacency_masks) == graphs._mask_adjacency(host.n, host.edges, want.tree.mask)
    assert got.tree._rooting == graphs._rooted(want.tree.adjacency_masks, host.n)


class TestSwappedScaffold:
    """``TreeScaffold._swapped`` against the scaffold rooted from scratch."""

    def test_random_crossing_swaps(self):
        rng = random.Random(61)
        swaps = 0
        for _ in range(150):
            n = rng.randint(2, 30)
            host = random_connected_host(n, rng.uniform(0.1, 0.9), rng)
            tree_edges = oracles.random_spanning_tree(n, host.edges, rng)
            sc = TreeScaffold(GameState(host, tree_edges))
            for _ in range(8):
                tree_edges = sc.tree.active
                e = rng.choice(sorted(tree_edges))
                side = oracles.child_side(n, tree_edges, e)
                crossing = [f for f in host.edges if f not in tree_edges and (f[0] in side) != (f[1] in side)]
                if not crossing:
                    continue
                f = rng.choice(crossing)
                # either orientation of either edge
                e, f = (e if rng.random() < 0.5 else e[::-1]), (f if rng.random() < 0.5 else f[::-1])
                got = sc._swapped(e, f)
                flip = (1 << host.edge_index[edge(*e)]) | (1 << host.edge_index[edge(*f)])
                assert_same_scaffold(got, TreeScaffold(GameState._from_mask(host, sc.tree.mask ^ flip)))
                sc = got
                swaps += 1
        assert swaps >= 500

    def test_moves_at_the_root_and_the_leaves(self):
        # on a star every swap re-roots one leaf; on a path every swap moves a tail
        for host, tree in ((clique(6), [(0, v) for v in range(1, 6)]), (clique(6), [(v, v + 1) for v in range(5)])):
            sc = TreeScaffold(GameState(host, tree))
            for e in sorted(sc.tree.active):
                side = oracles.child_side(host.n, sc.tree.active, e)
                for f in host.edges:
                    if f not in sc.tree.active and (f[0] in side) != (f[1] in side):
                        flip = (1 << host.edge_index[e]) | (1 << host.edge_index[f])
                        want = TreeScaffold(GameState._from_mask(host, sc.tree.mask ^ flip))
                        assert_same_scaffold(sc._swapped(e, f), want)

    def test_table_reads_the_scaffold_rooting(self, monkeypatch):
        # the swapped tree's distance table roots nothing again
        host = clique(7)
        sc = TreeScaffold(GameState(host, [(v, v + 1) for v in range(6)]))
        nxt = sc._swapped((2, 3), (0, 6))

        def refuse(*args):
            raise AssertionError("tree rooted again")

        monkeypatch.setattr(graphs, "_rooted", refuse)
        assert nxt.tree.table.dist == tuple(map(tuple, oracles.floyd_warshall(7, nxt.tree.active)))
        assert nxt.tree.table.total == nxt.total


class TestLaneKit:
    @pytest.mark.parametrize("w", [8, 16, 32, 64])
    def test_width_at_each_boundary(self, w):
        # the least W with the bound below 2^(W-1) - 1
        assert graphs._lane_width((1 << w - 1) - 2) == w
        if w < 64:
            assert graphs._lane_width((1 << w - 1) - 1) == 2 * w

    @pytest.mark.parametrize("w", [8, 16, 32, 64])
    @pytest.mark.parametrize("count", [1, 2, 256])
    def test_pack_unpack_round_trip(self, w, count):
        pack, unpack, ones, guard = graphs._lane_kit(count, w)
        rng = random.Random(w * count)
        top = (1 << w) - 1
        for values in ([0] * count, [top] * count, [rng.randrange(1 << w) for _ in range(count)]):
            x = pack(values)
            assert x == sum(v << w * k for k, v in enumerate(values))
            assert unpack(x) == tuple(values)
        lanes = [ones >> w * k & top for k in range(count)]
        assert lanes == [1] * count and ones >> w * count == 0
        lanes = [guard >> w * k & top for k in range(count)]
        assert lanes == [1 << w - 1] * count and guard >> w * count == 0

    @pytest.mark.parametrize("w", [8, 16, 32, 64])
    def test_pack_refuses_values_outside_a_lane(self, w):
        pack = graphs._lane_kit(2, w)[0]
        for bad in (-1, 1 << w):
            with pytest.raises(struct.error):
                pack([0, bad])


class TestLaneRows:
    @pytest.mark.parametrize("n", [2, 16, 17, 127, 128, 256, 257])
    def test_rows_unpack_to_the_table(self, n):
        # lanes of 8 bits up to n = 16, 16 bits up to 256, 32 bits from 257
        w = graphs._lane_width(n * (n - 1) // 2)
        assert w == (8 if n <= 16 else 16 if n <= 256 else 32)
        assert n * (n - 1) // 2 < (1 << w - 1) - 1
        # a tree's table is built packed; a cycle's rows are packed on first use
        for state in [full_state(path(n))] + ([full_state(cycle(n))] if n > 2 else []):
            table = state.table
            for row, packed in zip(table.dist, table.lanes):
                assert [packed >> (w * x) & ((1 << w) - 1) for x in range(n)] == list(row)
                assert packed >> (w * n) == 0


class TestTreeTable:
    """Tree tables (built without BFS) against Floyd-Warshall."""

    def assert_matches_oracle(self, state):
        n = state.host.n
        t = bfs_all_pairs(state)
        ref = oracles.floyd_warshall(n, state.active)
        assert t.dist == tuple(tuple(row) for row in ref)
        sums, total = oracles.distance_sums(n, state.active)
        assert (t.per_node_sum, t.total) == (tuple(sums), total)

    def test_random_trees(self):
        rng = random.Random(29)
        for n in range(2, 71):
            host = random_connected_host(n, min(1.0, 6 / n), rng)
            for _ in range(2):
                tree = oracles.random_spanning_tree(n, host.edges, rng)
                self.assert_matches_oracle(GameState(host, tree))

    def test_paths_and_stars(self):
        for n in (2, 3, 10, 70):
            self.assert_matches_oracle(full_state(path(n)))
            self.assert_matches_oracle(full_state(star(n)))

    def test_relabeled_path(self):
        # a path whose labels jump around, so preorder and labels differ
        order = random.Random(3).sample(range(40), 40)
        host = clique(40)
        self.assert_matches_oracle(GameState(host, zip(order, order[1:])))

    def test_smrcst_trees(self):
        rng = random.Random(31)
        for n in (12, 40, 70):
            host = random_connected_host(n, 6 / n, rng)
            for pivot in ("best", "first"):
                self.assert_matches_oracle(smrcst(host, pivot).tree.tree)

    def test_disconnected_tree_sized_mask(self):
        # n - 1 edges: a triangle plus an isolated node
        h = clique(4)
        mask = sum(1 << h.edge_index[e] for e in ((0, 1), (0, 2), (1, 2)))
        with pytest.raises(StructureError, match="state is disconnected"):
            bfs_all_pairs(GameState._from_mask(h, mask))
        # and with node 0 the isolated one
        mask = sum(1 << h.edge_index[e] for e in ((1, 2), (1, 3), (2, 3)))
        with pytest.raises(StructureError, match="state is disconnected"):
            bfs_all_pairs(GameState._from_mask(h, mask))

    def test_tree_table_runs_no_bfs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("BFS on a tree")

        state = full_state(path(9))
        monkeypatch.setattr(graphs, "_bfs", refuse)
        t = bfs_all_pairs(state)
        assert t.total == 8 * 9 * 10 // 3


class TestSwapDelta:
    """``oracles.cut_swap``, the certificate's per-cut formula one pair at a
    time, against distance sums recomputed by BFS on the swapped tree."""

    @staticmethod
    def cut(sc, rem, crossing):
        """``[(added edge, delta)]`` for the host edges ``crossing`` at the
        cut of tree edge ``rem``, in the order the formula scores them: each
        is the first pair above a floor that every change exceeds, once the
        edges before it are dropped from the mask."""
        host = sc.tree.host
        child = max(rem, key=sc.depth.__getitem__)
        mask = sum(1 << host.edge_index[f] for f in crossing)
        out = []
        while mask:
            j, delta = oracles.cut_swap(sc, child, mask, -sc.total)
            out.append((host.edges[j], delta))
            mask &= ~(1 << j)
        return out

    @staticmethod
    def first_above(sc, rem, crossing, floor):
        """``oracles.cut_swap`` on the whole crossing set."""
        host = sc.tree.host
        child = max(rem, key=sc.depth.__getitem__)
        mask = sum(1 << host.edge_index[f] for f in crossing)
        found = oracles.cut_swap(sc, child, mask, floor)
        return found and (host.edges[found[0]], found[1])

    def test_path_to_star(self):
        sc = TreeScaffold(GameState(clique(4), [(0, 1), (1, 2), (2, 3)]))
        assert self.cut(sc, (2, 3), [(1, 3)]) == [((1, 3), -2)]

    def test_star_to_path(self):
        sc = TreeScaffold(GameState(clique(4), [(0, 1), (0, 2), (0, 3)]))
        assert self.cut(sc, (0, 3), [(1, 3)]) == [((1, 3), 2)]

    def test_every_swap_of_every_tree_matches_bfs(self):
        # each cut's whole crossing set in one call
        for host in (clique(5), cycle(6), random_connected_host(7, 0.5, random.Random(7))):
            n = host.n
            for sc in enumerate_spanning_trees(host):
                tree_edges = sc.tree.active
                _, before = oracles.distance_sums(n, tree_edges)
                for rem in sorted(tree_edges):
                    side = oracles.child_side(n, tree_edges, rem)
                    want = [
                        (add, oracles.distance_sums(n, (tree_edges - {rem}) | {add})[1] - before)
                        for add in host.edges
                        if add not in tree_edges and (add[0] in side) != (add[1] in side)
                    ]
                    crossing = [add for add, _ in want]
                    assert self.cut(sc, rem, crossing) == want
                    for floor in {-sc.total, -1, 0, 1} | {delta for _, delta in want}:
                        above = [(add, d) for add, d in want if d > floor]
                        assert self.first_above(sc, rem, crossing, floor) == (above[0] if above else None)

    def test_200_random_swaps_match_from_scratch(self):
        rng = random.Random(321)
        checked = 0
        while checked < 200:
            n = rng.randint(4, 32)
            host = random_connected_host(n, rng.uniform(0.1, 0.5), rng)
            tree_edges = oracles.random_spanning_tree(n, host.edges, rng)
            sc = TreeScaffold(GameState(host, tree_edges))
            rem = rng.choice(sorted(tree_edges))
            side = oracles.child_side(n, tree_edges, rem)
            crossing = [
                f for f in host.edges if f not in tree_edges and (f[0] in side) != (f[1] in side)
            ]
            if not crossing:
                continue
            add = rng.choice(crossing)
            swapped = (set(tree_edges) - {rem}) | {add}
            _, before = oracles.distance_sums(n, tree_edges)
            _, after = oracles.distance_sums(n, swapped)
            assert self.cut(sc, rem, [add]) == [(add, after - before)]
            checked += 1


class TestBridges:
    def test_tree_edges_are_bridges(self):
        st_ = full_state(path(5))
        for e in st_.active:
            assert is_bridge(st_, e)

    def test_clique_edges_are_not(self):
        st_ = full_state(clique(4))
        for e in st_.active:
            assert not is_bridge(st_, e)

    def test_cycle_with_chord(self):
        host = HostGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
        st_ = full_state(host)
        assert not is_bridge(st_, (3, 4))

    def test_requires_active_edge(self):
        with pytest.raises(StructureError):
            is_bridge(full_state(path(3)), (0, 2))


class TestCanonicalKey:
    """A state's key is ``(host, mask)``: labeled equality only, so
    isomorphic but differently labeled states differ on purpose."""

    def test_reflexive(self):
        st_ = full_state(path(4))
        assert st_ == st_ and hash(st_) == hash((st_.host, st_.mask))

    def test_distinguishes_states(self):
        # two labeled spanning trees of K_4, a path and a star
        h = clique(4)
        a = GameState(h, [(0, 1), (1, 2), (2, 3)])
        b = GameState(h, [(0, 1), (0, 2), (0, 3)])
        assert (a.host, a.mask) != (b.host, b.mask)
        assert a != b

    def test_relabeled_isomorphic_states_differ(self):
        # the same path on K_4 under the relabeling 0 <-> 3
        h = clique(4)
        a = GameState(h, [(0, 1), (1, 2), (2, 3)])
        b = GameState(h, [(3, 1), (1, 2), (2, 0)])
        assert (a.host, a.mask) != (b.host, b.mask)
        assert a != b and len({a, b}) == 2

    def test_add_remove_round_trip(self):
        from sdncg import ADD, REMOVE, Move, apply_move

        h = clique(4)
        a = GameState(h, [(0, 1), (1, 2), (2, 3)])
        b = apply_move(apply_move(a, Move(ADD, 0, 3)), Move(REMOVE, 0, 3))
        assert (a.host, a.mask) == (b.host, b.mask)
        assert a == b and hash(a) == hash(b)

    def test_same_edges_same_host_value(self):
        a = GameState(clique(4), [(0, 1), (1, 2), (2, 3)])
        b = GameState(clique(4), [(0, 1), (1, 2), (2, 3)])
        assert (a.host, a.mask) == (b.host, b.mask)
        assert a == b and hash(a) == hash(b)


def test_edge_helper():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(StructureError):
        edge(2, 2)
