import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sdncg import (
    ParameterError,
    clique,
    clique_network,
    closed_form_sw,
    cycle,
    embed_in_clique,
    full_state,
    hypercube,
    hypercube_clique_network,
    is_pairwise_stable,
    path,
    path_clique,
    path_of_cliques,
    path_of_cliques_middle,
    removal_increases,
    social_welfare,
    star,
    star_of_cliques,
    wheel_clique_network,
    addition_decreases,
)
from sdncg import constructions, graphs


def block_sizes(graph, expected):
    """Check the contiguous-block labeling: within-block pairs all adjacent."""
    offset = 0
    for size in expected:
        block = range(offset, offset + size)
        for a in block:
            for b in block:
                if a < b:
                    assert graph.has_edge(a, b)
        offset += size
    assert offset == graph.n


class TestElementaryFamilies:
    def test_counts(self):
        assert clique(4).m == 6
        assert hypercube(3).n == 8 and hypercube(3).m == 12
        assert star(5).degree(0) == 4
        assert path(6).m == 5 and cycle(6).m == 6

    def test_parameter_errors(self):
        for bad in (lambda: path(1), lambda: cycle(2), lambda: star(1), lambda: clique(1), lambda: hypercube(0)):
            with pytest.raises(ParameterError):
                bad()

    def test_hypercube_dimension_capped_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("HostGraph built past the dimension cap")

        monkeypatch.setattr(constructions, "HostGraph", refuse)
        for d in (17, 40):
            with pytest.raises(ParameterError, match="d <= 16"):
                hypercube(d)

    def test_hypercube_edges_at_hamming_one(self):
        h = hypercube(3)
        for u, v in h.edges:
            assert bin(u ^ v).count("1") == 1


SRC = Path(__file__).resolve().parent.parent / "src"


class TestSizeCap:
    """Every family checks its closed-form node and edge counts against one
    cap, the size of hypercube(16), before it builds any list."""

    BUILDS = [
        (path, (2,)), (path, (9,)), (cycle, (3,)), (cycle, (10,)), (star, (2,)), (star, (7,)),
        (clique, (2,)), (clique, (9,)), (path_clique, (9, 4, 2)), (path_clique, (12, 5, 5)),
        (clique_network, (path(3), (2, 3, 4))), (clique_network, (cycle(4), (2, 2, 5, 3))),
        *[(star_of_cliques, (n, a)) for n in (6, 14, 29, 40) for a in (Fraction(3, 2), 2, Fraction(5, 2))
          if a * a <= n and n - 2 >= -(-a.numerator // a.denominator) + 2],
        *[(hypercube_clique_network, (n,)) for n in range(8, 200, 7)],
        *[(path_of_cliques, (n, d)) for n in (10, 17, 20, 37, 64) for d in (2, 4, 6) if n - 6 >= 2 * d],
        *[(wheel_clique_network, (n,)) for n in range(8, 30)],
    ]

    @pytest.mark.parametrize("build, args", BUILDS, ids=lambda x: getattr(x, "__name__", ""))
    def test_counts_match_the_built_host(self, monkeypatch, build, args):
        seen = []
        check = constructions._check_size
        monkeypatch.setattr(constructions, "_check_size", lambda f, n, m: seen.append((f, n, m)) or check(f, n, m))
        host = build(*args)
        assert (build.__name__, host.n, host.m) in seen

    def test_boundaries(self, monkeypatch):
        assert (graphs.MAX_NODES, graphs.MAX_EDGES) == (1 << 16, 16 << 15)  # hypercube(16)
        with monkeypatch.context() as patch:
            patch.setattr(constructions, "HostGraph", lambda n, edges: (n, len(edges)))
            assert clique(1024) == (1024, 523_776)  # the largest clique under the cap
        refused = [
            lambda: clique(1025),
            lambda: path(graphs.MAX_NODES + 1),
            lambda: cycle(10**12),
            lambda: star(10**12),
            lambda: path_clique(10**6, 10**5, 2),
            lambda: clique_network(path(2), (10**6, 2)),
            lambda: star_of_cliques(10**12, 2),
            lambda: hypercube_clique_network(10**6),
            lambda: hypercube_clique_network(70_000),
            lambda: path_of_cliques(10**12, 2),
            lambda: path_of_cliques(60_000, 2),
            lambda: wheel_clique_network(10**12),
        ]
        for build in refused:
            with pytest.raises(ParameterError, match="above the cap of 65536 nodes and 524288 edges"):
                build()
        # graphs._check_cap's text, named by the family
        with pytest.raises(ParameterError) as info:
            clique(1025)
        assert str(info.value) == (
            "clique: 1025 nodes and 524800 edges are above the cap of 65536 nodes and 524288 edges"
        )

    def test_cli_refuses_in_bounded_memory(self):
        # a child process with 1 GiB of address space: a family that builds
        # its edge list before checking dies there with MemoryError
        script = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from sdncg.cli import main
runs = [
    ["--family", "clique", "--n", "100000"],
    ["--family", "path", "--n", "10000000"],
    ["--family", "cycle", "--n", "10000000"],
    ["--family", "star", "--n", "10000000"],
    ["--family", "path-clique", "--n", "1000000", "--k", "100000", "--c", "2"],
    ["--family", "star-of-cliques", "--n", "100000000", "--alpha", "2"],
    ["--family", "hypercube-clique-network", "--n", "1000000"],
    ["--family", "path-of-cliques", "--n", "10000000", "--d", "2"],
    ["--family", "wheel-clique-network", "--n", "10000000"],
]
for argv in runs:
    try:
        print(main(["gen", *argv]))
    except MemoryError:
        print("MemoryError")
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SRC)], capture_output=True, text=True, timeout=120
        )
        assert proc.stdout.split() == ["2"] * 9, proc.stdout + proc.stderr
        assert proc.stderr.count("above the cap") == 9


class TestPathClique:
    def test_degenerate_path(self):
        assert path_clique(6, 0) == path(6)

    def test_degenerate_clique(self):
        assert path_clique(6, 6) == clique(6)

    def test_example_counts(self):
        g = path_clique(6, 3, 2)
        assert g.n == 6 and g.m == 3 + 2 + 2

    def test_connector_bounds(self):
        with pytest.raises(ParameterError):
            path_clique(6, 3, 1)
        with pytest.raises(ParameterError):
            path_clique(6, 3, 4)
        with pytest.raises(ParameterError):
            path_clique(6, 3)


class TestCliqueNetwork:
    def test_two_blocks_make_k4(self):
        g = clique_network(clique(2), [2, 2])
        assert g == clique(4)

    def test_path_base_count(self):
        g = clique_network(path(3), [2, 2, 2])
        assert g.n == 6 and g.m == 3 * 1 + 2 * 4

    def test_rejects_small_blocks(self):
        with pytest.raises(ParameterError):
            clique_network(path(3), [2, 1, 2])
        with pytest.raises(ParameterError):
            clique_network(path(3), [2, 2])

    @pytest.mark.parametrize(
        "graph",
        [
            clique_network(path(3), [2, 3, 2]),
            clique_network(cycle(4), [2, 2, 3, 2]),
            star_of_cliques(14, 2),
            wheel_clique_network(10),
            path_of_cliques(20, 4),
        ],
    )
    def test_removal_raises_both_sums_by_one(self, graph):
        # removing any clique-network edge only stretches its own endpoints
        st = full_state(graph)
        for e in graph.edges:
            inc = removal_increases(st, *e)
            assert inc == (1, 1)


class TestStarOfCliques:
    def test_layout_14_2(self):
        g = star_of_cliques(14, 2)
        assert g.n == 14
        # rays [K_i (2), pair (2)] x3 then center M (2)
        block_sizes(g, [2, 2, 2, 2, 2, 2, 2])
        # direct count from the edge-set definition: intra 7, bipartite 24
        assert g.m == 31

    def test_infeasible(self):
        with pytest.raises(ParameterError):
            star_of_cliques(14, 1)  # alpha must exceed 1
        with pytest.raises(ParameterError):
            star_of_cliques(9, 4)  # alpha > sqrt(n)
        with pytest.raises(ParameterError):
            star_of_cliques(5, 2)  # no full ray fits

    @pytest.mark.parametrize("n,alpha", [(14, 2), (20, 3)])
    def test_stable_at_alpha(self, n, alpha):
        st = embed_in_clique(star_of_cliques(n, alpha))
        assert is_pairwise_stable(st, alpha).stable


class TestHypercubeCliqueNetwork:
    def test_sizes(self):
        assert hypercube_clique_network(12).n == 12  # 4 cliques of 3
        g16 = hypercube_clique_network(16)
        block_sizes(g16, [2] * 8)
        g20 = hypercube_clique_network(20)
        block_sizes(g20, [3] * 4 + [2] * 4)

    def test_rejects_small(self):
        with pytest.raises(ParameterError):
            hypercube_clique_network(7)

    @pytest.mark.parametrize(
        "n,alpha",
        [(64, Fraction(64, 6) - 3), (24, 1)],
    )
    def test_stable_at_alpha(self, n, alpha):
        st = embed_in_clique(hypercube_clique_network(n))
        assert is_pairwise_stable(st, alpha).stable


class TestPathOfCliques:
    def test_layout_20_4(self):
        g = path_of_cliques(20, 4)
        assert g.n == 20
        block_sizes(g, [3, 4, 2, 2, 2, 4, 3])  # sizes (3,4), pairs, (4,3)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            path_of_cliques(20, 3)  # odd d
        with pytest.raises(ParameterError):
            path_of_cliques(12, 4)  # cliques would drop below 2

    def test_middle_edge_distance_drop(self):
        n = 20
        g = path_of_cliques(n, 4)
        v1, v1p, v2, v2p, v3, v3p = path_of_cliques_middle(n)
        st = embed_in_clique(g)
        dec_v1, dec_v3 = addition_decreases(st, v1, v3)
        assert dec_v1 == n // 2 - 2
        assert dec_v3 == (n + 1) // 2 - 2

    @pytest.mark.parametrize("n,d,alpha", [(20, 4, 8), (26, 4, 11)])
    def test_stable_at_alpha(self, n, d, alpha):
        st = embed_in_clique(path_of_cliques(n, d))
        assert is_pairwise_stable(st, alpha).stable


class TestWheelCliqueNetwork:
    def test_sizes(self):
        assert wheel_clique_network(10).n == 10
        g11 = wheel_clique_network(11)
        assert g11.n == 11
        block_sizes(g11, [3] + [2] * 4)  # odd n: center clique of 3

    def test_rejects_small(self):
        with pytest.raises(ParameterError):
            wheel_clique_network(7)

    def test_contains_hamilton_path(self):
        # the labels in order: hub block, then each rim block around the rim
        for n in range(8, 41):
            g = wheel_clique_network(n)
            assert all(g.has_edge(v, v + 1) for v in range(n - 1))

    @pytest.mark.parametrize("n,alpha", [(10, 1), (11, 2)])
    def test_host_state_stable(self, n, alpha):
        st = full_state(wheel_clique_network(n))
        assert is_pairwise_stable(st, alpha).stable


class TestClosedForms:
    def test_examples(self):
        assert closed_form_sw("path", 6, 2) == 90
        assert closed_form_sw("clique", 6, 2) == 90
        assert closed_form_sw("star", 5, 1) == 40

    def test_parity_enforced(self):
        with pytest.raises(ParameterError):
            closed_form_sw("cycle_odd", 6, 1)
        with pytest.raises(ParameterError):
            closed_form_sw("cycle_even", 5, 1)

    def test_matches_generated_graphs(self):
        for n in (3, 7, 12, 25):
            for a in (Fraction(1, 2), Fraction(n, 3)):
                assert closed_form_sw("path", n, a) == social_welfare(full_state(path(n)), a)
                assert closed_form_sw("clique", n, a) == social_welfare(full_state(clique(n)), a)
                assert closed_form_sw("star", n, a) == social_welfare(full_state(star(n)), a)
                key = "cycle_odd" if n % 2 else "cycle_even"
                assert closed_form_sw(key, n, a) == social_welfare(full_state(cycle(n)), a)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            closed_form_sw("torus", 5, 1)


def test_embed_in_clique():
    st = embed_in_clique(path(4))
    assert st.host == clique(4)
    assert st.active == frozenset({(0, 1), (1, 2), (2, 3)})


def test_generators_yield_requested_sizes():
    cases = [
        (path, [(2,), (9,)]),
        (cycle, [(3,), (8,)]),
        (star, [(2,), (9,)]),
        (clique, [(2,), (7,)]),
        (path_clique, [(7, 4, 3), (6, 0)]),
        (star_of_cliques, [(14, 2), (30, 4)]),
        (hypercube_clique_network, [(8,), (13,), (40,)]),
        (path_of_cliques, [(16, 2), (30, 6)]),
        (wheel_clique_network, [(8,), (15,)]),
    ]
    for gen, param_sets in cases:
        for params in param_sets:
            g = gen(*params)
            assert g.n == params[0]
