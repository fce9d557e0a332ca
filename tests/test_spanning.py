import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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
        side = oracles.child_side(host.n, active, e)
        for f in host.edges:
            if f in active:
                continue
            if (f[0] in side) == (f[1] in side):
                continue
            yield e, f


def swap_delta(scaffold, e, f):
    """Routing-cost change of ``tree - e + f`` by the certificate's cut
    formula, ``oracles.cut_swap``, asked for the one pair with a floor every
    change exceeds."""
    child = max(e, key=scaffold.depth.__getitem__)
    j = scaffold.tree.host.edge_index[f]
    _, delta = oracles.cut_swap(scaffold, child, 1 << j, -scaffold.total)
    return delta


def delta_scan_picks(scaffold):
    """The swaps each pivot must pick, by ``swap_delta`` on every
    crossing pair in scan order: the first pair of the largest positive
    change, and the first pair with a positive one."""
    best_delta, best, first = 0, None, None
    for e, f in crossing_swaps(scaffold):
        delta = swap_delta(scaffold, e, f)
        if delta > 0 and first is None:
            first = e, f
        if delta > best_delta:
            best_delta, best = delta, (e, f)
    return {"best": best, "first": first}


def no_improving_swap(scaffold):
    return all(swap_delta(scaffold, e, f) <= 0 for e, f in crossing_swaps(scaffold))


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
        # equal degrees everywhere, so each step goes to the smallest label
        assert greedy_long_path(clique(4)) == [0, 1, 2, 3]

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

    def test_matches_forced_path_kruskal(self):
        rng = random.Random(53)
        for _ in range(40):
            h = random_connected_host(rng.randint(2, 14), rng.uniform(0.1, 0.8), rng)
            walk = [rng.randrange(h.n)]
            for _ in range(rng.randrange(h.n)):
                nxt = [w for w in range(h.n) if w not in walk and h.has_edge(walk[-1], w)]
                if not nxt:
                    break
                walk.append(rng.choice(nxt))
            for p in [[], walk, *([v] for v in range(h.n))]:
                got = extend_to_spanning_tree(h, p).tree.active
                assert got == oracles.forced_path_kruskal(h.n, h.edges, p), (h, p)

    def test_deep_host_in_time(self):
        start = time.perf_counter()
        assert extend_to_spanning_tree(path(1500), []).tree.m == 1499
        assert time.perf_counter() - start < 5

    @staticmethod
    def lines_run(host, path_nodes):
        """Line events in ``spanning``'s frames during one call: a work
        count that does not depend on the machine."""
        count = 0

        def tracer(frame, event, arg):
            nonlocal count
            if frame.f_code.co_filename != spanning.__file__:
                return None
            if event == "line":
                count += 1
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            extend_to_spanning_tree(host, path_nodes)
        finally:
            sys.settrace(previous)
        return count

    def test_work_is_near_linear(self):
        # four times the nodes may cost at most six times the lines: n log n
        # merges read about 4.8 times as many, a per-edge copy of the
        # component list 16 times
        rng = random.Random(67)
        small, large = path(300), path(1200)
        assert self.lines_run(large, []) <= 6 * self.lines_run(small, [])
        small = host_with_m_edges(300, 900, rng)
        large = host_with_m_edges(1200, 3600, rng)
        assert self.lines_run(large, [0]) <= 6 * self.lines_run(small, [0])


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
        # the path walk's scores, cross-checked by the certificate's formula
        rng = random.Random(23)
        for _ in range(10):
            h = random_connected_host(rng.randint(5, 10), rng.uniform(0.4, 0.9), rng)
            sc = extend_to_spanning_tree(h, [0])
            found = _find_swap(sc, "best")
            if found is None:
                assert no_improving_swap(sc)
            else:
                e, f = found
                best = swap_delta(sc, e, f)
                assert best > 0
                for e2, f2 in crossing_swaps(sc):
                    assert swap_delta(sc, e2, f2) <= best

    def test_both_pivots_match_reference_search(self, monkeypatch):
        # every swap rescored by BFS on the new tree, in (tree edge, host edge)
        # order, by the lanes on hosts with at least n non-tree edges and by
        # the path walk on the others
        walks = []
        walk = spanning._walk_swap
        monkeypatch.setattr(spanning, "_walk_swap", lambda *args: walks.append(1) or walk(*args))
        rng = random.Random(37)
        picked = {"best": 0, "first": 0}
        walked = 0
        for _ in range(300):
            n = rng.randint(2, 12)
            h = host_with_m_edges(n, rng.randint(n - 1, min(3 * n, n * (n - 1) // 2)), rng)
            sc = TreeScaffold(GameState(h, oracles.random_spanning_tree(n, h.edges, rng)))
            walked += 2 * (0 < h.m - n + 1 < n)
            for pivot in ("best", "first"):
                want = oracles.reference_find_swap(sc, pivot)
                assert _find_swap(sc, pivot) == want
                picked[pivot] += want is not None
        assert min(picked.values()) >= 100
        assert len(walks) == walked and 100 <= walked <= 500

    def test_lanes_and_walk_agree_at_the_block_edge(self, monkeypatch):
        # 2 * LANE_BLOCK nodes is the largest tree the lanes take; one node
        # more and the search walks, with the same picks either way
        walks = []
        walk = spanning._walk_swap
        monkeypatch.setattr(spanning, "_walk_swap", lambda *args: walks.append(1) or walk(*args))
        rng = random.Random(83)
        for n in (2 * spanning.LANE_BLOCK, 2 * spanning.LANE_BLOCK + 1):
            h = host_with_m_edges(n, 3 * n, rng)
            sc = TreeScaffold(GameState(h, oracles.random_spanning_tree(n, h.edges, rng)))
            chords = spanning._chords(sc)
            for pivot in ("best", "first"):
                calls = len(walks)
                assert _find_swap(sc, pivot) == walk(sc, pivot, chords) is not None
                assert len(walks) - calls == (n > 2 * spanning.LANE_BLOCK)

    def test_both_pivots_match_delta_scan_on_large_trees(self):
        # the certificate's evaluator over every crossing pair, at n up to 70
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(5, 70)
            h = host_with_m_edges(n, min(3 * n, n * (n - 1) // 2), rng)
            sc = TreeScaffold(GameState(h, oracles.random_spanning_tree(n, h.edges, rng)))
            want = delta_scan_picks(sc)
            assert _find_swap(sc, "best") == want["best"]
            assert _find_swap(sc, "first") == want["first"]

    def test_pivots_match_delta_scan_along_trajectories(self):
        # every scaffold of full smrcst runs, including the last, swap-maximal one
        rng = random.Random(47)
        for n in (40, 55, 70):
            h = host_with_m_edges(n, 3 * n, rng)
            for pivot in ("best", "first"):
                sc = extend_to_spanning_tree(h, greedy_long_path(h))
                steps = 0
                while True:
                    swap = _find_swap(sc, pivot)
                    assert swap == delta_scan_picks(sc)[pivot]
                    if swap is None:
                        break
                    flip = sum(1 << h.edge_index[e] for e in swap)
                    sc = TreeScaffold(GameState._from_mask(h, sc.tree.mask ^ flip))
                    steps += 1
                res = smrcst(h, pivot)
                assert (sc.tree.mask, steps) == (res.tree.tree.mask, res.iterations)
                assert steps > 0

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


SEQUENCE_GOLDEN = Path(__file__).resolve().parent / "golden" / "smrcst-seq.json"


def sequence_hosts():
    """The hosts ``tests/golden/smrcst-seq.json`` pins: eight with n = 40 to
    70 and m = 3n; for each n = 3 to 8 two with each m of n, n + 1, n + 2,
    2n and 3n that n admits; and two-sided hosts on 5 to 8 nodes, whose
    greedy seed is often not swap-maximal."""
    rng = random.Random(3101)
    hosts = [host_with_m_edges(n, 3 * n, rng) for n in (40, 44, 49, 53, 58, 62, 66, 70)]
    for n in range(3, 9):
        for m in sorted({min(k, n * (n - 1) // 2) for k in (n, n + 1, n + 2, 2 * n, 3 * n)}):
            hosts += [host_with_m_edges(n, m, rng) for _ in range(2)]
    for a, b in ((2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (2, 6), (3, 5)):
        hosts.append(HostGraph(a + b, [
            (u, a + v) for u in range(a) for v in range(b) if 0 in (u, v) or rng.random() < 0.7
        ]))
    return hosts


def swap_sequence(h, pivot):
    """One ``smrcst`` run as a record: every swap in order, the final tree,
    the iteration count and the routing cost."""
    sc = extend_to_spanning_tree(h, greedy_long_path(h))
    swaps = []
    while (swap := _find_swap(sc, pivot)) is not None:
        swaps.append([list(e) for e in swap])
        sc = sc._swapped(*swap)
    res = smrcst(h, pivot)
    assert (res.tree.tree.mask, res.iterations) == (sc.tree.mask, len(swaps))
    return {
        "n": h.n,
        "m": h.m,
        "pivot": pivot,
        "swaps": swaps,
        "tree": [list(e) for e in sorted(res.tree.tree.active)],
        "iterations": res.iterations,
        "routing_cost": res.routing_cost,
    }


def sequence_text():
    """The golden's text, one record per line; regenerate with
    PYTHONPATH=src:tests python -c \
        "import test_spanning; print(test_spanning.sequence_text(), end='')" > tests/golden/smrcst-seq.json
    """
    records = [swap_sequence(h, pivot) for h in sequence_hosts() for pivot in ("best", "first")]
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


class TestSwapSequenceGolden:
    def test_matches_golden(self):
        assert sequence_text() == SEQUENCE_GOLDEN.read_text()


class TestSwapLoopScaffolds:
    def test_every_swap_matches_rebuilt_scaffold(self, monkeypatch):
        # each scaffold the loop derives by a swap, field by field against the
        # tree rooted from scratch, on poly-shaped hosts (m = 3n) and on the
        # campaign's optimum corpus
        from sdncg.analysis import _optimum_hosts
        from test_graphs import assert_same_scaffold

        rng = random.Random(59)
        hosts = [host_with_m_edges(n, 3 * n, rng) for n in (40, 50, 60, 70)]
        hosts += _optimum_hosts(0)
        derive = TreeScaffold._swapped
        checked = []

        def checked_swap(sc, e, f):
            got = derive(sc, e, f)
            h = sc.tree.host
            flip = (1 << h.edge_index[e]) | (1 << h.edge_index[f])
            assert_same_scaffold(got, TreeScaffold(GameState._from_mask(h, sc.tree.mask ^ flip)))
            checked.append(e)
            return got

        monkeypatch.setattr(TreeScaffold, "_swapped", checked_swap)
        for h in hosts:
            for pivot in ("best", "first"):
                before = len(checked)
                res = smrcst(h, pivot)
                assert len(checked) - before == res.iterations
                assert res.routing_cost == oracles.distance_sums(h.n, res.tree.tree.active)[1]
        assert len(checked) >= 100


class TestCrossingSets:
    def test_parity_matches_child_side(self, monkeypatch):
        # lane k is the k-th tree edge in host-index order, cut into
        # max(1, (n - 1) // LANE_BLOCK) blocks of 2 to 2 * LANE_BLOCK - 1
        # lanes; in a block, lanc[x] ^ (lanc[x] & lanc[y]) flags exactly the
        # cuts with x below and y above them
        rng = random.Random(47)
        for size in (spanning.LANE_BLOCK, 2, 5):
            monkeypatch.setattr(spanning, "LANE_BLOCK", size)
            for _ in range(10):
                n = rng.randint(3, 70)
                h = host_with_m_edges(n, rng.randint(n - 1, min(3 * n, n * (n - 1) // 2)), rng)
                tree_edges = oracles.random_spanning_tree(n, h.edges, rng)
                sc = TreeScaffold(GameState(h, tree_edges))
                w = spanning._lane_width(8 * n**3 + 2 * n * n)
                chords = spanning._chords(sc)
                assert chords == [f for f in h.edges if f not in tree_edges]
                blocks = list(spanning._lane_blocks(sc, w))
                nodes = [c for block, *_ in blocks for c in block]
                assert len(blocks) == max(1, (n - 1) // size)
                assert all(2 <= len(block) < 2 * size for block, *_ in blocks)
                assert [graphs.edge(c, sc.parent[c]) for c in nodes] == sorted(tree_edges)
                for block, lanc, _, _, top in blocks:
                    for k, c in enumerate(block):
                        side = oracles.child_side(n, tree_edges, graphs.edge(c, sc.parent[c]))
                        flag = 1 << w * k + w - 1
                        for x, y in chords:
                            below = bool(lanc[x] & ~lanc[y] & flag), bool(lanc[y] & ~lanc[x] & flag)
                            assert below == (x in side and y not in side, y in side and x not in side)
                    for x in range(n):
                        want = sum(1 << w * k + w - 1 for k, c in enumerate(block) if c in ancestors(sc, x))
                        assert lanc[x] & top == lanc[x] == want


def ancestors(scaffold, x):
    """x and every node above it in the rooted tree."""
    out = {x}
    while x:
        x = scaffold.parent[x]
        out.add(x)
    return out


def certificate_verdict(scaffold):
    """``smrcst_certificates``'s verdict on a tree: True, or its message."""
    try:
        return smrcst_certificates(SmrcstResult(scaffold, 1, 0, scaffold.total), scaffold.tree.host)["swap_maximal"]
    except CertificateError as err:
        return str(err)


def edge_case_trees():
    """Stars (centre at the root or at a leaf), paths (in label order and
    relabeled) and every spanning tree of K_3, as scaffolds on cliques."""
    rng = random.Random(61)
    trees = []
    for n in range(2, 10):
        h = clique(n)
        for centre in {0, n - 1}:
            trees.append(GameState(h, [(centre, v) for v in range(n) if v != centre]))
        for order in (list(range(n)), list(range(n - 1, -1, -1)), rng.sample(range(n), n)):
            trees.append(GameState(h, zip(order, order[1:])))
    trees += [GameState(clique(3), t) for t in oracles.spanning_trees_brute(3, clique(3).edges)]
    return [TreeScaffold(t) for t in trees]


class TestLaneEdgeCases:
    def test_stars_paths_and_k3_match_reference_search(self):
        # cuts at the root's children and at leaves, one-lane trees (n = 2)
        # and every cut of K_3
        picked = 0
        for sc in edge_case_trees():
            for pivot in ("best", "first"):
                want = oracles.reference_find_swap(sc, pivot)
                assert _find_swap(sc, pivot) == want, (sc.tree.active, pivot)
                picked += want is not None
            scan = [(e, f) for e, f in crossing_swaps(sc) if swap_delta(sc, e, f) > 0]
            want = f"swap-maximality violated: improving swap {scan[0]}" if scan else True
            assert certificate_verdict(sc) == want
        assert picked >= 20

    def test_64_bit_lanes_agree_with_32(self, monkeypatch):
        # the same picks and verdicts at the natural widths, 8, 16 and 32 bits
        # on n = 2 to 16, and with the width rule forced to 64
        rng = random.Random(67)
        scaffolds = edge_case_trees()
        for _ in range(60):
            n = rng.randint(2, 16)
            h = host_with_m_edges(n, rng.randint(n - 1, min(3 * n, n * (n - 1) // 2)), rng)
            scaffolds.append(TreeScaffold(GameState(h, oracles.random_spanning_tree(n, h.edges, rng))))
        widths = {spanning._lane_width(8 * sc.tree.host.n**3 + 2 * sc.tree.host.n**2) for sc in scaffolds}
        assert widths == {8, 16, 32}

        def outcomes():
            return [(_find_swap(sc, "best"), _find_swap(sc, "first"), certificate_verdict(sc)) for sc in scaffolds]

        narrow = outcomes()
        monkeypatch.setattr(spanning, "_lane_width", lambda bound: 64)
        assert outcomes() == narrow
        assert sum(isinstance(v, str) for _, _, v in narrow) >= 20

    def test_width_bound(self):
        # 32 bits up to n = 644; the bound 4n^3 + n^2 stays below 2^62 at the node cap
        assert spanning._lane_width(8 * 644**3 + 2 * 644**2) == 32
        assert spanning._lane_width(8 * 645**3 + 2 * 645**2) == 64
        assert 4 * 644**3 + 644**2 < 1 << 30 <= 4 * 645**3 + 645**2
        assert 4 * graphs.MAX_NODES**3 + graphs.MAX_NODES**2 < 1 << 62

    def test_blocked_lanes_agree_with_one_block(self, monkeypatch):
        # the same picks and verdicts with LANE_BLOCK at 2, 3 and 5: the
        # certificate scores its lanes in blocks of 2 to 9, and the search
        # walks tree paths on trees of more than 2 * LANE_BLOCK nodes
        rng = random.Random(67)
        scaffolds = edge_case_trees()
        for _ in range(60):
            n = rng.randint(2, 16)
            h = host_with_m_edges(n, rng.randint(n - 1, min(3 * n, n * (n - 1) // 2)), rng)
            scaffolds.append(TreeScaffold(GameState(h, oracles.random_spanning_tree(n, h.edges, rng))))
        assert max(sc.tree.host.n for sc in scaffolds) < spanning.LANE_BLOCK

        def outcomes():
            return [(_find_swap(sc, "best"), _find_swap(sc, "first"), certificate_verdict(sc)) for sc in scaffolds]

        whole = outcomes()
        for size in (2, 3, 5):
            monkeypatch.setattr(spanning, "LANE_BLOCK", size)
            assert outcomes() == whole
        assert sum(isinstance(v, str) for _, _, v in whole) >= 20

    def test_large_sparse_hosts_in_bounded_memory(self):
        # 20,000-node hosts with 0, 1 and 3 edges off a Hamiltonian path, both
        # pivots, in a child process with 1 GiB of address space: lanes for
        # all n cuts would take n^2 * 64 bits per row, about 3.2 GB, so such
        # trees are searched by the walk
        script = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from sdncg import HostGraph, cycle, path, smrcst
n = 20_000
chorded = HostGraph(n, cycle(n).edges + ((0, n // 2), (n // 4, 3 * n // 4)))
for host in (path(n), cycle(n), chorded):
    for pivot in ("best", "first"):
        res = smrcst(host, pivot)
        print(res.iterations, res.routing_cost)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(Path(spanning.__file__).parents[1])],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        n = 20_000
        assert proc.stdout.split("\n") == [f"0 {(n - 1) * n * (n + 1) // 3}"] * 6 + [""]

    def test_every_lane_within_the_bound(self):
        # the half change of every (cut, x, y), crossed or not: the search's
        # at most 4n^3 + n^2 in size, the certificate's between -(3n^3/2) and
        # n^3/2 + n^2
        rng = random.Random(71)
        scaffolds = edge_case_trees()
        for n in (12, 20):
            h = host_with_m_edges(n, 3 * n, rng)
            scaffolds += [TreeScaffold(GameState(h, oracles.random_spanning_tree(n, h.edges, rng))) for _ in range(3)]
        for sc in scaffolds:
            n = sc.tree.host.n
            P, d, size, parent = sc.per_node_sum, sc.depth, sc.subtree_size, sc.parent
            dist = sc.tree.table.dist
            for c in range(n):
                s, a = size[c], parent[c]
                base = s * s + (n - s) ** 2 + n * (P[a] - s)
                for x in range(n):
                    for y in range(n):
                        v = (s * (P[y] - P[x]) + n * (P[x] - P[a]) + n * (n - 2 * s) * (d[c] - d[x] - 1)
                             - s * s * (dist[x][y] + 1) + n * s)
                        assert abs(v) <= 4 * n**3 + n * n
                        v = s * (P[y] - s * dist[y][a]) + (n - s) * (P[x] - (n - s) * dist[x][c]) - base
                        assert -3 * n**3 <= 2 * v <= n**3 + 2 * n * n


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

    def test_order_is_combinations_order(self):
        rng = random.Random(47)
        for _ in range(30):
            h = random_connected_host(rng.randint(3, 8), rng.uniform(0.2, 0.6), rng)
            got = [sc.tree.active for sc in enumerate_spanning_trees(h)]
            assert got == oracles.spanning_trees_brute(h.n, h.edges)

    def test_deep_hosts_in_time(self):
        # one tree each, 1,499 edges deep in the walk
        start = time.perf_counter()
        [sc] = enumerate_spanning_trees(star(1500))
        assert sc.tree.active == frozenset(star(1500).edges)
        [sc] = enumerate_spanning_trees(path(1500))
        assert time.perf_counter() - start < 5

    def test_negative_budget_refused_before_counting(self, monkeypatch):
        def refuse(host):
            raise AssertionError("trees counted before the budget check")

        monkeypatch.setattr(spanning, "_spanning_tree_count", refuse)
        with pytest.raises(ParameterError, match="nonnegative, got -1"):
            list(enumerate_spanning_trees(clique(4), budget=-1))
        with pytest.raises(ParameterError):
            mrcst_exact(clique(4), budget=-1)

    def test_budget_count_skipped_when_it_cannot_bind(self, monkeypatch):
        def refuse(host):
            raise AssertionError("tree count taken though C(m, n-1) <= budget")

        monkeypatch.setattr(spanning, "_spanning_tree_count", refuse)
        [sc] = enumerate_spanning_trees(path(1500), budget=1)
        assert sc.tree.m == 1499
        assert sum(1 for _ in enumerate_spanning_trees(cycle(6), budget=6)) == 6

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

    def test_ties_go_to_smallest_mask(self):
        h = clique(5)
        trees = oracles.spanning_trees_brute(h.n, h.edges)
        costs = [oracles.distance_sums(h.n, t)[1] for t in trees]
        masks = [sum(1 << h.edge_index[e] for e in t) for t, c in zip(trees, costs) if c == max(costs)]
        assert len(masks) > 1
        assert mrcst_exact(h).tree.mask == min(masks)

    def test_deep_path_in_time(self):
        start = time.perf_counter()
        assert mrcst_exact(path(1500)).total == 1499 * 1500 * 1501 // 3
        assert time.perf_counter() - start < 5

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
        assert swap_delta(seed, e, f) <= 0
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

    def test_distance_bound_violation_named(self):
        # the K_6 result is a Hamilton path (rc 70); a claimed seed path of
        # 20 edges would need 9 * rc >= 6 * 20^2
        h = clique(6)
        r = smrcst(h)
        fake = SmrcstResult(r.tree, 20, r.iterations, r.routing_cost)
        with pytest.raises(CertificateError) as err:
            smrcst_certificates(fake, h)
        assert str(err.value) == "distance bound violated: 9*routing_cost = 630 < n*l^2 = 2400"

    def test_iteration_bound_violation_named(self):
        h = clique(6)
        r = smrcst(h)
        fake = SmrcstResult(r.tree, r.seed_path_length, 71, r.routing_cost)
        with pytest.raises(CertificateError) as err:
            smrcst_certificates(fake, h)
        assert str(err.value) == "iteration bound violated: 71 > (n-1)n(n+1)/3 = 70"

    def test_host_mismatch_refused(self):
        # a tree of another host: a foreign edge, or a host missing a tree edge
        with pytest.raises(ParameterError, match="another host"):
            smrcst_certificates(smrcst(star(6)), clique(6))
        with pytest.raises(ParameterError, match="another host"):
            smrcst_certificates(smrcst(clique(6)), path(6))

    def test_claimed_cost_must_be_the_trees(self):
        # a swap-maximal tree whose result claims more than the tree's cost
        h = clique(6)
        r = smrcst(h)
        fake = SmrcstResult(r.tree, r.seed_path_length, r.iterations, r.routing_cost + 2)
        with pytest.raises(CertificateError, match="routing cost mismatch"):
            smrcst_certificates(fake, h)

    def test_names_the_smallest_improving_swap(self):
        # trees one random crossing swap away from an SMRCST result: the
        # certificate names the first improving pair in (tree edge, host edge)
        # index order, and passes iff there is none
        rng = random.Random(53)
        raised = 0
        for _ in range(200):
            n = rng.randint(3, 12)
            h = host_with_m_edges(n, rng.randint(n, min(3 * n, n * (n - 1) // 2)), rng)
            res = smrcst(h)
            e, f = rng.choice(list(crossing_swaps(res.tree)))
            sc = TreeScaffold(GameState(h, (res.tree.tree.active - {e}) | {f}))
            improving = [(e2, f2) for e2, f2 in crossing_swaps(sc) if swap_delta(sc, e2, f2) > 0]
            fake = SmrcstResult(sc, 1, 0, sc.total)
            if not improving:
                assert smrcst_certificates(fake, h)["swap_maximal"]
                continue
            e2, f2 = improving[0]
            with pytest.raises(CertificateError) as err:
                smrcst_certificates(fake, h)
            assert str(err.value) == f"swap-maximality violated: improving swap ({e2}, {f2})"
            assert oracles.distance_sums(n, (sc.tree.active - {e2}) | {f2})[1] > sc.total
            raised += 1
        assert 100 <= raised < 200

    def test_names_the_improving_swap(self):
        # a tree one worsening swap away from an SMRCST result, whose only
        # improving swap (by BFS recomputation) undoes that swap
        h = random_connected_host(8, 0.35, random.Random(2))
        res = smrcst(h)
        for e, f in crossing_swaps(res.tree):
            if swap_delta(res.tree, e, f) >= 0:
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

        def rows_only(nbr, sources, row=None):
            # the one distance table builds rows; any other BFS is a rescan BFS
            if row is None:
                raise AssertionError("rowless BFS in the certificate rescan")
            return kernel(nbr, sources, row)

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
