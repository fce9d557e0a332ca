import json
import random
import re
from fractions import Fraction

import pytest

import oracles
from sdncg import (
    BudgetExceededError,
    CertificateError,
    GameState,
    HostGraph,
    TreeScaffold,
    clique,
    cycle,
    dump_text,
    enumerate_spanning_trees,
    extend_to_spanning_tree,
    greedy_long_path,
    is_pairwise_stable,
    mrcst_exact,
    path,
    random_connected_host,
    routing_cost,
    smrcst,
    smrcst_certificates,
    star,
    tree_swap_delta,
    StructureError,
    ParameterError,
)
from sdncg import graphs, spanning
from sdncg.cli import main
from sdncg.spanning import SmrcstResult, _find_swap, _spanning_tree_count


def crossing_swaps(scaffold):
    """Every (tree edge out, crossing host edge in) pair, in scan order."""
    host = scaffold.tree.host
    active = scaffold.tree.active
    for e in sorted(active):
        below = scaffold.below_mask[e]
        for f in host.edges:
            if f in active:
                continue
            if ((below >> f[0]) & 1) == ((below >> f[1]) & 1):
                continue
            yield e, f


def no_improving_swap(scaffold):
    return all(tree_swap_delta(scaffold, e, f) <= 0 for e, f in crossing_swaps(scaffold))


def host_with_m_edges(n, m, rng):
    """A random spanning tree on n nodes plus uniform extra pairs, m edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return HostGraph(n, edges)


class TestGreedyLongPath:
    def test_path_host(self):
        for n in (2, 5, 9):
            p = greedy_long_path(path(n))
            assert len(p) == n

    def test_k4_hamilton(self):
        p = greedy_long_path(clique(4))
        assert len(p) == 4

    def test_c5(self):
        p = greedy_long_path(cycle(5))
        assert len(p) == 5

    def test_contract_on_random_hosts(self):
        rng = random.Random(5)
        for _ in range(30):
            h = random_connected_host(rng.randint(3, 14), rng.uniform(0.1, 0.9), rng)
            p = greedy_long_path(h)
            l = len(p) - 1
            assert l * h.n >= h.m
            assert len(set(p)) == len(p)
            for a, b in zip(p, p[1:]):
                assert h.has_edge(a, b)


def pendant_clique(k):
    """K_k with one pendant leaf on each clique node: 2k nodes, k(k-1)/2 + k edges."""
    clique_edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return HostGraph(2 * k, clique_edges + [(v, k + v) for v in range(k)])


class TestLongPathGuarantee:
    # the greedy path misses m/n here, and n > 20 leaves the DFS fallback alone
    def test_pendant_clique_library(self):
        for k in (12, 13, 16):
            h = pendant_clique(k)
            r = smrcst(h)
            assert r.seed_path_length * h.n >= h.m
            assert smrcst_certificates(r, h)["distance_bound_ok"]

    def test_pendant_clique_cli(self, capsys, tmp_path):
        f = tmp_path / "pendant.txt"
        f.write_text(dump_text(pendant_clique(12)))
        assert main(["smrcst", "--input", str(f), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed_path_length"] * 24 >= 78

    def test_broken_fallback_raises(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(spanning, "_deepest_dfs_path", lambda host: [0])
        h = pendant_clique(12)
        with pytest.raises(CertificateError):
            greedy_long_path(h)
        f = tmp_path / "pendant.txt"
        f.write_text(dump_text(h))
        assert main(["smrcst", "--input", str(f)]) == 1
        assert "long-path guarantee" in capsys.readouterr().err


class TestExtendToSpanningTree:
    def test_spanning_path_unchanged(self):
        h = path(5)
        sc = extend_to_spanning_tree(h, [0, 1, 2, 3, 4])
        assert sc.tree.active == frozenset(h.edges)

    def test_single_node_on_tree_host(self):
        h = star(5)
        sc = extend_to_spanning_tree(h, [2])
        assert sc.tree.active == frozenset(h.edges)

    def test_contains_path_edges(self):
        h = clique(4)
        sc = extend_to_spanning_tree(h, [2, 3])
        assert (2, 3) in sc.tree.active
        assert len(sc.tree.active) == 3

    def test_rejects_non_path(self):
        with pytest.raises(StructureError):
            extend_to_spanning_tree(clique(4), [0, 1, 0])
        with pytest.raises(StructureError):
            extend_to_spanning_tree(path(4), [0, 2])


class TestSmrcst:
    def test_tree_host_is_fixed_point(self):
        h = star(6)
        r = smrcst(h)
        assert r.iterations == 0
        assert r.tree.tree.active == frozenset(h.edges)

    def test_c5_gives_path_cost(self):
        assert smrcst(cycle(5)).routing_cost == 40

    def test_k4_gives_path_cost(self):
        assert smrcst(clique(4)).routing_cost == 20

    def test_bad_pivot_rejected(self):
        with pytest.raises(ParameterError):
            smrcst(clique(4), "steepest")

    def test_k26_improves_to_maximum(self, k26):
        for pivot in ("best", "first"):
            r = smrcst(k26, pivot)
            assert r.iterations >= 1
            assert r.routing_cost == mrcst_exact(k26).total

    def test_swap_maximality_on_random_hosts(self):
        rng = random.Random(11)
        for _ in range(12):
            h = random_connected_host(rng.randint(4, 12), rng.uniform(0.2, 0.8), rng)
            for pivot in ("best", "first"):
                r = smrcst(h, pivot)
                assert no_improving_swap(r.tree)
                assert r.iterations <= (h.n - 1) * h.n * (h.n + 1) // 3
                assert r.routing_cost == routing_cost(r.tree.tree)

    def test_cost_ordering(self):
        rng = random.Random(13)
        for _ in range(8):
            h = random_connected_host(rng.randint(4, 8), rng.uniform(0.3, 0.8), rng)
            seed_tree = extend_to_spanning_tree(h, greedy_long_path(h))
            r = smrcst(h)
            assert mrcst_exact(h).total >= r.routing_cost >= seed_tree.total

    def test_stability_at_n_third(self):
        rng = random.Random(17)
        for _ in range(6):
            h = random_connected_host(rng.randint(6, 12), rng.uniform(0.2, 0.6), rng)
            st = smrcst(h).tree.tree
            assert is_pairwise_stable(st, Fraction(h.n, 3)).stable


class TestFindSwapAgainstDelta:
    def test_batched_scores_match_single_swap(self):
        # the path walk's scores, cross-checked via the public op
        rng = random.Random(23)
        for _ in range(10):
            h = random_connected_host(rng.randint(5, 10), rng.uniform(0.4, 0.9), rng)
            sc = extend_to_spanning_tree(h, [0])
            found = _find_swap(sc, "best")
            if found is None:
                assert no_improving_swap(sc)
            else:
                e, f = found
                best = tree_swap_delta(sc, e, f)
                assert best > 0
                for e2 in sorted(sc.tree.active):
                    below = sc.below_mask[e2]
                    for f2 in h.edges:
                        if f2 in sc.tree.active:
                            continue
                        if ((below >> f2[0]) & 1) == ((below >> f2[1]) & 1):
                            continue
                        assert tree_swap_delta(sc, e2, f2) <= best

    def test_both_pivots_match_reference_search(self):
        # every swap rescored by BFS on the new tree, in (tree edge, host edge) order
        rng = random.Random(37)
        picked = {"best": 0, "first": 0}
        for _ in range(300):
            n = rng.randint(2, 12)
            h = host_with_m_edges(n, rng.randint(n - 1, min(3 * n, n * (n - 1) // 2)), rng)
            sc = TreeScaffold(GameState(h, oracles.random_spanning_tree(n, h.edges, rng)))
            for pivot in ("best", "first"):
                want = oracles.reference_find_swap(sc, pivot)
                assert _find_swap(sc, pivot) == want
                picked[pivot] += want is not None
        assert min(picked.values()) >= 100

    def test_both_pivots_match_delta_scan_on_large_trees(self):
        # the certificate's evaluator over every crossing pair, at n up to 70
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(5, 70)
            h = host_with_m_edges(n, min(3 * n, n * (n - 1) // 2), rng)
            sc = TreeScaffold(GameState(h, oracles.random_spanning_tree(n, h.edges, rng)))
            best_delta, best, first = 0, None, None
            for e, f in crossing_swaps(sc):
                delta = tree_swap_delta(sc, e, f)
                if delta > 0 and first is None:
                    first = e, f
                if delta > best_delta:
                    best_delta, best = delta, (e, f)
            assert _find_swap(sc, "best") == best
            assert _find_swap(sc, "first") == first

    def test_smrcst_with_reference_search(self, monkeypatch):
        # sparse and two-sided hosts, where the greedy seed is often not swap-maximal
        rng = random.Random(43)
        hosts = [host_with_m_edges(n, n + 1, rng) for n in rng.choices(range(6, 11), k=15)]
        for _ in range(15):
            a, b = rng.randint(2, 3), rng.randint(3, 7)
            hosts.append(HostGraph(a + b, [
                (u, a + v) for u in range(a) for v in range(b) if 0 in (u, v) or rng.random() < 0.7
            ]))
        runs = [(h, pivot) for h in hosts for pivot in ("best", "first")]
        got = [smrcst(h, pivot) for h, pivot in runs]
        monkeypatch.setattr(spanning, "_find_swap", oracles.reference_find_swap)
        for (h, pivot), r in zip(runs, got):
            want = smrcst(h, pivot)
            assert (r.tree.tree.mask, r.iterations) == (want.tree.tree.mask, want.iterations)
        assert sum(r.iterations for r in got) >= 20


class TestEnumeration:
    def test_cycle_counts(self):
        for n in (3, 5, 8):
            assert sum(1 for _ in enumerate_spanning_trees(cycle(n))) == n

    def test_cayley_counts(self):
        assert sum(1 for _ in enumerate_spanning_trees(clique(4))) == 16
        assert sum(1 for _ in enumerate_spanning_trees(clique(5))) == 125

    def test_tree_host_single(self):
        assert sum(1 for _ in enumerate_spanning_trees(star(7))) == 1

    def test_matches_kirchhoff_on_random_hosts(self):
        rng = random.Random(29)
        for _ in range(10):
            h = random_connected_host(rng.randint(4, 8), rng.uniform(0.3, 0.9), rng)
            got = sum(1 for _ in enumerate_spanning_trees(h))
            assert got == oracles.kirchhoff_count(h.n, h.edges)

    def test_trees_unique_and_valid(self):
        h = clique(5)
        seen = set()
        for sc in enumerate_spanning_trees(h):
            assert sc.tree.mask not in seen
            seen.add(sc.tree.mask)
            assert len(sc.tree.active) == 4

    def test_budget_overflow_signal(self):
        gen = enumerate_spanning_trees(clique(5), budget=10)
        with pytest.raises(BudgetExceededError):
            list(gen)

    def test_count_matches_kirchhoff_oracle(self):
        rng = random.Random(41)
        for _ in range(50):
            h = random_connected_host(rng.randint(2, 12), rng.uniform(0.1, 0.9), rng)
            assert _spanning_tree_count(h) == oracles.kirchhoff_count(h.n, h.edges)


class TestMrcst:
    def test_k4_and_k5(self):
        assert mrcst_exact(clique(4)).total == 20
        assert mrcst_exact(clique(5)).total == 40

    def test_star_host(self):
        sc = mrcst_exact(star(6))
        assert sc.tree.active == frozenset(star(6).edges)

    def test_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(8):
            h = random_connected_host(rng.randint(4, 7), rng.uniform(0.3, 0.9), rng)
            best = mrcst_exact(h)
            brute = max(
                oracles.distance_sums(h.n, t)[1]
                for t in oracles.spanning_trees_brute(h.n, h.edges)
            )
            assert best.total == brute

    def test_budget_signal(self):
        with pytest.raises(BudgetExceededError):
            mrcst_exact(clique(6), budget=100)

    def test_budget_checked_before_any_tree(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tree was built before the budget check")

        monkeypatch.setattr(spanning, "TreeScaffold", refuse)
        with pytest.raises(BudgetExceededError, match="exceeds budget 10"):
            mrcst_exact(clique(9), budget=10)


class TestSwapLoopGuard:
    def test_non_improving_swap_raises(self, monkeypatch):
        # K_5's seed is a Hamilton path, already swap-maximal; a search that
        # keeps returning one of its crossing swaps would flip between two
        # trees forever unless the loop checks the cost rises
        h = clique(5)
        seed = extend_to_spanning_tree(h, greedy_long_path(h))
        e, f = next(crossing_swaps(seed))
        assert tree_swap_delta(seed, e, f) <= 0
        monkeypatch.setattr(spanning, "_find_swap", lambda scaffold, pivot: (e, f))
        with pytest.raises(CertificateError, match=re.escape(f"swap ({e}, {f})")):
            smrcst(h)


class TestCertificates:
    # the welfare ratio SW(OPT)/SW(MRCST) is approximation_report's check;
    # see TestApproximationReport in test_analysis.py

    def test_k4_report(self):
        h = clique(4)
        r = smrcst(h)
        rep = smrcst_certificates(r, h)
        assert rep["distance_bound_ok"] and rep["swap_maximal"]
        assert rep["iteration_bound"] == 3 * 4 * 5 // 3

    def test_tree_host_trivial(self):
        h = star(6)
        rep = smrcst_certificates(smrcst(h), h)
        assert rep["iterations"] == 0 and rep["swap_maximal"]
        assert rep["routing_cost"] == 2 * 5**2

    def test_k6_bound(self):
        h = clique(6)
        rep = smrcst_certificates(smrcst(h), h)
        # a Hamilton path seed: l = n - 1, the path cost, no swap
        assert rep["seed_path_length"] == 5 and rep["iterations"] == 0
        assert 9 * rep["routing_cost"] >= 6 * 5 * 5

    def test_tampered_result_fails(self):
        h = clique(4)
        r = smrcst(h)
        star_tree = TreeScaffold(GameState(h, [(0, 1), (0, 2), (0, 3)]))
        fake = SmrcstResult(star_tree, r.seed_path_length, r.iterations, star_tree.total)
        with pytest.raises(CertificateError, match="swap-maximality|distance bound"):
            smrcst_certificates(fake, h)

    def test_names_the_improving_swap(self):
        # a tree one worsening swap away from an SMRCST result, whose only
        # improving swap (by BFS recomputation) undoes that swap
        h = random_connected_host(8, 0.35, random.Random(2))
        res = smrcst(h)
        for e, f in crossing_swaps(res.tree):
            if tree_swap_delta(res.tree, e, f) >= 0:
                continue
            sc = TreeScaffold(GameState(h, (res.tree.tree.active - {e}) | {f}))
            improving = [
                (e2, f2)
                for e2, f2 in crossing_swaps(sc)
                if oracles.distance_sums(h.n, (sc.tree.active - {e2}) | {f2})[1] > sc.total
            ]
            if improving == [(f, e)] and 9 * sc.total >= h.n * res.seed_path_length**2:
                break
        else:
            pytest.fail("no tree with a single improving swap")
        fake = SmrcstResult(sc, res.seed_path_length, res.iterations, sc.total)
        with pytest.raises(CertificateError) as err:
            smrcst_certificates(fake, h)
        assert str(err.value) == f"swap-maximality violated: improving swap ({f}, {e})"

    def test_rescan_uses_one_distance_table(self, monkeypatch):
        h = host_with_m_edges(50, 150, random.Random(43))
        res = smrcst(h)

        kernel = graphs._bfs

        def rows_only(nbr, sources, allowed=-1, row=None):
            # the one distance table builds rows; any other BFS is a rescan BFS
            if row is None:
                raise AssertionError("masked BFS in the certificate rescan")
            return kernel(nbr, sources, allowed, row)

        tables = []
        build = graphs.bfs_all_pairs

        def counted(state):
            tables.append(state.mask)
            return build(state)

        monkeypatch.setattr(graphs, "_bfs", rows_only)
        monkeypatch.setattr(graphs, "bfs_all_pairs", counted)
        rep = smrcst_certificates(res, h)
        assert rep["swap_maximal"]
        assert len(tables) <= 1
