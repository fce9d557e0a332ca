import random
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
    canonical_key,
    clique,
    cycle,
    edge,
    enumerate_spanning_trees,
    full_state,
    is_bridge,
    path,
    random_connected_host,
    routing_cost,
    star,
    tree_swap_delta,
)


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
        assert h.adj[1] == frozenset({0, 2})

    def test_edge_normalization(self):
        h = HostGraph(3, [(2, 0), (1, 0)])
        assert h.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(StructureError):
            HostGraph(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_duplicates(self):
        with pytest.raises(StructureError):
            HostGraph(3, [(0, 1), (1, 0), (1, 2)])

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

    def test_matches_bfs_on_all_spanning_trees(self):
        for host in (clique(5), cycle(6), random_connected_host(7, 0.5, random.Random(7))):
            for sc in enumerate_spanning_trees(host):
                assert sc.total == bfs_all_pairs(sc.tree).total

    def test_per_node_sums(self):
        sc = TreeScaffold(full_state(star(5)))
        t = bfs_all_pairs(sc.tree)
        assert sc.per_node_sum == t.per_node_sum


class TestSwapDelta:
    def test_path_to_star(self):
        sc = TreeScaffold(GameState(clique(4), [(0, 1), (1, 2), (2, 3)]))
        assert tree_swap_delta(sc, (2, 3), (1, 3)) == -2

    def test_star_to_path(self):
        sc = TreeScaffold(GameState(clique(4), [(0, 1), (0, 2), (0, 3)]))
        assert tree_swap_delta(sc, (0, 3), (1, 3)) == 2

    def test_identity_swap(self):
        sc = TreeScaffold(GameState(clique(4), [(0, 1), (1, 2), (2, 3)]))
        assert tree_swap_delta(sc, (1, 2), (1, 2)) == 0

    def test_rejects_disconnecting_swap(self):
        host = clique(5)
        sc = TreeScaffold(GameState(host, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        with pytest.raises(StructureError):
            tree_swap_delta(sc, (0, 1), (1, 3))  # (1,3) does not cross the {0} cut

    def test_rejects_foreign_edges(self):
        host = path(4)
        sc = TreeScaffold(full_state(host))
        with pytest.raises(StructureError):
            tree_swap_delta(sc, (1, 2), (0, 2))  # not a host edge
        with pytest.raises(StructureError):
            tree_swap_delta(sc, (0, 2), (1, 2))  # not a tree edge

    def test_every_swap_of_every_tree_matches_bfs(self):
        for host in (clique(5), cycle(6), random_connected_host(7, 0.5, random.Random(7))):
            n = host.n
            for sc in enumerate_spanning_trees(host):
                tree_edges = sc.tree.active
                _, before = oracles.distance_sums(n, tree_edges)
                for rem in sorted(tree_edges):
                    below = sc.below_mask[rem]
                    for add in host.edges:
                        if add in tree_edges or ((below >> add[0]) & 1) == ((below >> add[1]) & 1):
                            continue
                        _, after = oracles.distance_sums(n, (tree_edges - {rem}) | {add})
                        assert tree_swap_delta(sc, rem, add) == after - before

    def test_200_random_swaps_match_from_scratch(self):
        rng = random.Random(321)
        checked = 0
        while checked < 200:
            n = rng.randint(4, 32)
            host = random_connected_host(n, rng.uniform(0.1, 0.5), rng)
            tree_edges = oracles.random_spanning_tree(n, host.edges, rng)
            sc = TreeScaffold(GameState(host, tree_edges))
            rem = rng.choice(sorted(tree_edges))
            below = sc.below_mask[rem]
            crossing = [
                f
                for f in host.edges
                if f not in tree_edges and ((below >> f[0]) & 1) != ((below >> f[1]) & 1)
            ]
            if not crossing:
                continue
            add = rng.choice(crossing)
            got = tree_swap_delta(sc, rem, add)
            swapped = (set(tree_edges) - {rem}) | {add}
            _, before = oracles.distance_sums(n, tree_edges)
            _, after = oracles.distance_sums(n, swapped)
            assert got == after - before
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
    def test_reflexive(self):
        st_ = full_state(path(4))
        assert canonical_key(st_) == canonical_key(st_)

    def test_distinguishes_states(self):
        h = clique(4)
        a = GameState(h, [(0, 1), (1, 2), (2, 3)])
        b = GameState(h, [(0, 1), (0, 2), (0, 3)])
        assert canonical_key(a) != canonical_key(b)

    def test_add_remove_round_trip(self):
        from sdncg import add_move, apply_move, remove_move

        h = clique(4)
        a = GameState(h, [(0, 1), (1, 2), (2, 3)])
        b = apply_move(apply_move(a, add_move(0, 3)), remove_move(0, 3))
        assert canonical_key(a) == canonical_key(b)

    def test_same_edges_same_host_value(self):
        a = GameState(clique(4), [(0, 1), (1, 2), (2, 3)])
        b = GameState(clique(4), [(0, 1), (1, 2), (2, 3)])
        assert canonical_key(a) == canonical_key(b)


def test_edge_helper():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(StructureError):
        edge(2, 2)
