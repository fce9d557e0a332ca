import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sdncg import (
    ADD,
    REMOVE,
    GameState,
    Move,
    ParameterError,
    StructureError,
    addition_decreases,
    apply_move,
    clique,
    cycle,
    enumerate_spanning_trees,
    full_state,
    improving_moves,
    is_pairwise_stable,
    parse_alpha,
    path,
    random_connected_host,
    removal_increases,
    run_dynamics,
    smrcst,
    social_welfare,
    stability_interval,
    stable_in_interval,
    star,
    utility,
)
from sdncg import game


def random_state(host, rng):
    # randomized Kruskal for a spanning tree inside the host, plus extras
    shuffled = list(host.edges)
    rng.shuffle(shuffled)
    parent = list(range(host.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = set()
    for u, v in shuffled:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add((u, v))
    for e in host.edges:
        if e not in chosen and rng.random() < 0.5:
            chosen.add(e)
    return GameState(host, chosen)


def two_state_arcs(state, p, q, limit=None):
    """A stand-in for ``game._improving_arcs`` whose only improving moves
    toggle edge 0: removal from a state that has it, addition otherwise."""
    u, v = state.host.edges[0]
    kind = REMOVE if state.mask & 1 else ADD
    return ((Move(kind, u, v), state.mask ^ 1),)


class TestAlpha:
    def test_parse_fraction(self):
        assert parse_alpha("7/3") == Fraction(7, 3)
        assert parse_alpha(" 2 ") == 2

    def test_rejects_decimals(self):
        with pytest.raises(ParameterError):
            parse_alpha("2.5")
        with pytest.raises(ParameterError):
            parse_alpha("1e-3")

    def test_rejects_non_numbers(self):
        for bad in ("abc", "1/x", "1/2/3"):
            with pytest.raises(ParameterError, match=f"^cannot parse alpha '{bad}': "):
                parse_alpha(bad)

    def test_rejects_nonpositive(self):
        for bad in ("0", "-1", "0/5"):
            with pytest.raises(ParameterError):
                parse_alpha(bad)

    def test_rejects_digits_beyond_ascii(self):
        # int() reads these as 3, 10, 3/4 and 12: alpha is "p" or "p/q" in 0-9
        for bad in ("\u0663", "1_0", "\u0663/\u0664", "\uff11\uff12"):
            with pytest.raises(ParameterError, match=f"^cannot parse alpha '{bad}': "):
                parse_alpha(bad)
        assert parse_alpha("7 / 3") == Fraction(7, 3)
        assert parse_alpha("+2") == 2

    def test_rejects_bools(self):
        # bool is a subclass of int, so Fraction(True) would be 1
        for bad in (True, False):
            with pytest.raises(ParameterError, match=f"got {bad}$"):
                game.as_alpha(bad)
        assert game.as_alpha(1) == 1

    def test_rejects_float_values(self):
        with pytest.raises(ParameterError):
            utility(full_state(path(3)), 0, 0.5)


class TestUtility:
    def test_path_endpoint(self):
        st_ = GameState(clique(4), [(0, 1), (1, 2), (2, 3)])
        assert utility(st_, 0, 1) == 7

    def test_clique_symmetry(self):
        st_ = full_state(clique(5))
        assert all(utility(st_, v, 2) == 12 for v in range(5))

    def test_star_center_fractional(self):
        st_ = full_state(star(4))
        assert utility(st_, 0, Fraction(1, 2)) == Fraction(9, 2)

    def test_out_of_range(self):
        with pytest.raises(StructureError):
            utility(full_state(path(3)), 9, 1)


class TestMoveKernelPairs:
    """``removal_increases`` takes only active edges, ``addition_decreases``
    no self-pair, and both kernels only nodes in range, refused with
    StructureError as ``utility``, ``is_bridge`` and ``apply_move`` refuse
    them."""

    def test_removal_refuses_inactive_pairs(self):
        st_ = full_state(path(4))
        # (0, 2) is no edge: the removal would have added it
        for u, v in ((0, 2), (2, 0), (0, 3), (1, 1)):
            with pytest.raises(StructureError, match=rf"^edge \({u}, {v}\) not active$"):
                removal_increases(st_, u, v)
        # a host edge that the state leaves out
        with pytest.raises(StructureError, match="not active"):
            removal_increases(GameState(clique(4), [(0, 1), (1, 2), (2, 3)]), 0, 3)
        assert removal_increases(st_, 1, 2) is None
        assert removal_increases(full_state(cycle(4)), 1, 0) == (2, 2)

    def test_nodes_out_of_range(self):
        st_ = full_state(path(4))
        for u, v in ((0, 4), (4, 0), (-1, 2), (2, -1)):
            with pytest.raises(StructureError, match="not active"):
                removal_increases(st_, u, v)
            with pytest.raises(StructureError, match=rf"^pair \({u}, {v}\) out of range for n=4$"):
                addition_decreases(st_, u, v)
        assert addition_decreases(st_, 0, 3) == (2, 2)

    def test_addition_refuses_self_pairs(self):
        # the same error as the move itself, for every node
        st_ = full_state(path(4))
        for v in range(4):
            with pytest.raises(StructureError, match=rf"^self-loop at node {v}$"):
                addition_decreases(st_, v, v)
            with pytest.raises(StructureError, match=rf"^self-loop at node {v}$"):
                apply_move(st_, Move("add", v, v))


class TestSocialWelfare:
    def test_paper_values(self):
        assert social_welfare(full_state(path(5)), 1) == 48
        assert social_welfare(full_state(clique(6)), 2) == 90
        assert social_welfare(full_state(cycle(5)), 1) == 40

    @given(st.integers(0, 10**6), st.integers(3, 7))
    @settings(max_examples=30, deadline=None)
    def test_sum_of_utilities(self, seed, n):
        rng = random.Random(seed)
        host = random_connected_host(n, rng.uniform(0.2, 0.8), rng)
        st_ = random_state(host, rng)
        _, total = oracles.distance_sums(n, st_.active)
        for a in (Fraction(1, 2), Fraction(1), Fraction(n, 3)):
            w = social_welfare(st_, a)
            assert w == sum(utility(st_, v, a) for v in range(n))
            # the identity the library computes by: sum of utilities = 2*alpha*|E| + d(V, V)
            assert w == oracles.welfare(n, st_.active, a) == 2 * a * len(st_.active) + total


class TestImprovingMoves:
    def test_p4_on_k4_alpha_3(self):
        st_ = GameState(clique(4), [(0, 1), (1, 2), (2, 3)])
        moves = improving_moves(st_, 3)
        assert Move(ADD, 0, 3) in moves
        assert all(m.kind == ADD for m in moves)

    def test_tree_alpha_one_empty(self):
        for host in (clique(5), clique(6)):
            for n_edges in ([(0, 1), (1, 2), (2, 3), (3, 4)],):
                st_ = GameState(host, n_edges + [(0, i) for i in range(5, host.n)])
                assert improving_moves(st_, 1) == []

    def test_k4_alpha_half_removals(self):
        moves = improving_moves(full_state(clique(4)), Fraction(1, 2))
        assert moves and all(m.kind == REMOVE for m in moves)
        assert len(moves) == 6

    def test_lexicographic_order(self):
        st_ = GameState(clique(4), [(0, 1), (1, 2), (2, 3)])
        moves = improving_moves(st_, 3)
        assert moves == sorted(moves)

    def test_limit_truncates(self):
        # run_dynamics' first policy asks the scan for a prefix of one
        st_ = full_state(clique(5))
        arcs = game._improving_arcs(st_, 1, 2, 2)
        assert [mv for mv, _ in arcs] == improving_moves(st_, Fraction(1, 2))[:2]

    @given(st.integers(0, 10**6), st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, seed, n):
        rng = random.Random(seed)
        host = random_connected_host(n, rng.uniform(0.3, 0.9), rng)
        st_ = random_state(host, rng)
        for a in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(n, 2)):
            got = [(m.kind, m.u, m.v) for m in improving_moves(st_, a)]
            want = oracles.improving_moves(n, host.edges, st_.active, a)
            assert sorted(got) == sorted(want)


class TestStability:
    def test_path_p6_on_k6(self):
        st_ = GameState(clique(6), [(i, i + 1) for i in range(5)])
        assert is_pairwise_stable(st_, Fraction(5, 2)).stable

    def test_k5_alpha_3(self):
        assert is_pairwise_stable(full_state(clique(5)), 3).stable

    def test_star_on_k5_unstable(self):
        st_ = GameState(clique(5), [(0, i) for i in range(1, 5)])
        rep = is_pairwise_stable(st_, Fraction(3, 2))
        assert not rep.stable
        assert not rep.stable_against_addition
        assert rep.stable_against_removal
        assert all(m.kind == ADD for m in rep.witnesses)

    def test_report_invariants(self):
        st_ = full_state(clique(4))
        rep = is_pairwise_stable(st_, Fraction(1, 2))
        assert rep.stable == (rep.stable_against_addition and rep.stable_against_removal)
        assert (not rep.stable) == bool(rep.witnesses)
        assert rep.moves_examined == 6  # no additions possible, six removals

    def test_every_tree_stable_at_most_one(self):
        host = clique(5)
        for sc in enumerate_spanning_trees(host):
            st_ = GameState(host, sc.tree.active)
            assert is_pairwise_stable(st_, 1).stable
            assert is_pairwise_stable(st_, Fraction(2, 3)).stable

    def test_clique_regimes(self):
        for n in (4, 5, 6):
            st_ = full_state(clique(n))
            assert is_pairwise_stable(st_, 1).stable
            assert not is_pairwise_stable(st_, Fraction(9, 10)).stable


class TestScanAgainstBruteForce:
    """The one move scan, read by is_pairwise_stable and stability_interval,
    against the oracle that recomputes both endpoint utilities by BFS."""

    @given(st.integers(0, 10**6), st.integers(3, 7))
    @settings(max_examples=40, deadline=None)
    def test_report_and_interval(self, seed, n):
        rng = random.Random(seed)
        host = random_connected_host(n, rng.uniform(0.3, 0.9), rng)
        st_ = random_state(host, rng)
        lo, hi = stability_interval(st_)
        half = Fraction(1, 2)
        probes = {Fraction(1, 3)}
        for b in (lo, hi):
            if b is not None:
                probes |= {b - half, Fraction(b), b + half}
        for a in sorted(x for x in probes if x > 0):
            want = oracles.improving_moves(n, host.edges, st_.active, a)
            rep = is_pairwise_stable(st_, a)
            assert [(m.kind, m.u, m.v) for m in rep.witnesses] == want
            assert rep.stable == (not want)
            assert rep.stable_against_addition == all(k != ADD for k, _, _ in want)
            assert rep.stable_against_removal == all(k != REMOVE for k, _, _ in want)
            assert rep.moves_examined == host.m
            assert stable_in_interval((lo, hi), a) == (not want)
            for k in (1, 2):
                arcs = game._improving_arcs(st_, a.numerator, a.denominator, k)
                assert [mv for mv, _ in arcs] == list(rep.witnesses[:k])


class TestTreeScan:
    def test_trees_need_no_bridge_bfs(self, monkeypatch):
        # every edge of a spanning tree is a bridge, so the scan never asks
        rng = random.Random(59)
        trees = []
        for _ in range(20):
            n = rng.randint(3, 9)
            host = random_connected_host(n, rng.uniform(0.3, 0.9), rng)
            trees.append(GameState(host, oracles.random_spanning_tree(n, host.edges, rng)))
            trees.append(smrcst(host).tree.tree)

        def refuse(*args, **kwargs):
            raise AssertionError("removal BFS on a spanning tree")

        monkeypatch.setattr(game, "removal_increases", refuse)
        for st_ in trees:
            n = st_.host.n
            lo, hi = stability_interval(st_)
            assert lo is None
            probes = {Fraction(1, 2), Fraction(1), Fraction(n, 3), Fraction(n)}
            if hi is not None:
                probes |= {hi - Fraction(1, 2), Fraction(hi), hi + Fraction(1, 2)}
            for a in sorted(probes):
                want = oracles.improving_moves(n, st_.host.edges, st_.active, a)
                rep = is_pairwise_stable(st_, a)
                assert [(m.kind, m.u, m.v) for m in rep.witnesses] == want
                assert rep.stable == (not want)
                assert stable_in_interval((lo, hi), a) == (not want)


def zip_decreases(dist, u, v):
    """The reference: each endpoint's drop, term by term over the rows."""
    dec_u = sum(max(0, a - b - 1) for a, b in zip(dist[u], dist[v]))
    dec_v = sum(max(0, b - a - 1) for a, b in zip(dist[u], dist[v]))
    return dec_u, dec_v


class TestAdditionKernels:
    """Both kernels of ``addition_decreases``, the term loop and the packed
    lanes, against the reference on the same tables, across the crossover
    and the lane-width switches."""

    @pytest.mark.parametrize("n", [2, 5, 11, 12, 16, 17, 127, 128, 256, 257])
    @pytest.mark.parametrize("lanes_from", [2, 10**9])
    def test_kernel_matches_reference(self, monkeypatch, n, lanes_from):
        monkeypatch.setattr(game, "_LANE_NODES", lanes_from)
        rng = random.Random(n)
        # a path has the largest distances and sums; a random tree and a
        # denser state have others
        states = [full_state(path(n))]
        host = random_connected_host(n, min(1.0, 4 / n), rng)
        states.append(GameState(host, oracles.random_spanning_tree(n, host.edges, rng)))
        if n <= 40:
            states.append(random_state(host, rng))
        for st_ in states:
            dist = st_.table.dist
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for u, v in rng.sample(pairs, min(len(pairs), 300)) + [(0, n - 1)]:
                assert game.addition_decreases(st_, u, v) == zip_decreases(dist, u, v), (u, v)

    def test_drops_match_bfs_on_the_added_edge(self):
        # at n = 12 to 14 the lanes score every missing host edge
        rng = random.Random(5)
        for n in (12, 13, 14):
            host = random_connected_host(n, 0.4, rng)
            st_ = random_state(host, rng)
            before = oracles.distance_sums(n, st_.active)[0]
            for u, v in host.edges:
                if (u, v) not in st_.active:
                    after = oracles.distance_sums(n, st_.active | {(u, v)})[0]
                    assert game.addition_decreases(st_, u, v) == (before[u] - after[u], before[v] - after[v])


class TestUnitRemovalScan:
    """The scan's removal half reads the sole-first-hop lemma
    (``game._unit_removals``) on states that lack some host edge."""

    ALPHAS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 2))

    def states(self):
        rng = random.Random(71)
        out = []
        for n in (5, 8, 12, 14):
            dense = clique(n)
            sparse = random_connected_host(n, 3 / n, rng)
            for host in (dense, sparse):
                out.append(full_state(host))
                out += [random_state(host, rng) for _ in range(3)]
        out.append(full_state(cycle(9)))
        return out

    def test_scan_matches_oracle(self):
        kinds = set()
        for st_ in self.states():
            n = st_.host.n
            for a in self.ALPHAS:
                want = oracles.improving_moves(n, st_.host.edges, st_.active, a)
                got = [(m.kind, m.u, m.v) for m in improving_moves(st_, a)]
                assert got == want, (st_.host, st_.mask, a)
                kinds |= {k for k, _, _ in want}
            lo, hi = stability_interval(st_)
            for a in self.ALPHAS:
                assert stable_in_interval((lo, hi), a) == (not oracles.improving_moves(n, st_.host.edges, st_.active, a))
        assert kinds == {ADD, REMOVE}

    def test_lemma_only_where_the_table_is_built(self, monkeypatch):
        lemma = game._unit_removals
        removal = game.removal_increases
        calls = {"lemma": 0, "bfs": 0}

        def counted_lemma(st_):
            calls["lemma"] += 1
            return lemma(st_)

        def counted_removal(st_, u, v):
            calls["bfs"] += 1
            return removal(st_, u, v)

        monkeypatch.setattr(game, "_unit_removals", counted_lemma)
        monkeypatch.setattr(game, "removal_increases", counted_removal)
        host = clique(6)
        # full: no addition builds the table, so every removal runs its BFS
        stability_interval(full_state(host))
        assert calls == {"lemma": 0, "bfs": host.m}
        # a tree: no removal at all
        calls.update(lemma=0, bfs=0)
        stability_interval(GameState(host, [(0, v) for v in range(1, 6)]))
        assert calls == {"lemma": 0, "bfs": 0}
        # K_6 minus one edge: the lemma settles every edge with a unit rise
        # at both ends, and only the others are scanned
        calls.update(lemma=0, bfs=0)
        st_ = GameState(host, host.edges[1:])
        unit = lemma(st_)
        both = sum(1 for u, v in st_.active if unit[u] >> v & 1 and unit[v] >> u & 1)
        assert stability_interval(st_) == (1, 1)
        assert calls == {"lemma": 1, "bfs": st_.m - both} and both > 0


class TestStabilityInterval:
    @given(st.integers(0, 10**6), st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_interval_matches_full_checker(self, seed, n):
        rng = random.Random(seed)
        host = random_connected_host(n, rng.uniform(0.3, 0.9), rng)
        st_ = random_state(host, rng)
        interval = stability_interval(st_)
        for a in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(n, 2), Fraction(n)):
            assert stable_in_interval(interval, a) == is_pairwise_stable(st_, a).stable

    def test_tree_interval(self):
        lo, hi = stability_interval(GameState(clique(4), [(0, 1), (1, 2), (2, 3)]))
        assert lo is None  # nothing removable
        assert hi == 2  # every addition drops an endpoint sum by >= 2

    def test_host_state_interval_unbounded_above(self):
        lo, hi = stability_interval(full_state(path(4)))
        assert lo is None and hi is None  # nothing addable or removable


class TestApplyMove:
    def test_round_trip(self):
        a = GameState(clique(4), [(0, 1), (1, 2), (2, 3)])
        b = apply_move(a, Move(ADD, 0, 3))
        c = apply_move(b, Move(REMOVE, 0, 3))
        assert c == a

    def test_remove_bridge_errors(self):
        with pytest.raises(StructureError):
            apply_move(full_state(path(4)), Move(REMOVE, 1, 2))

    def test_add_foreign_edge_errors(self):
        with pytest.raises(StructureError):
            apply_move(full_state(path(4)), Move(ADD, 0, 2))

    def test_add_active_edge_errors(self):
        with pytest.raises(StructureError):
            apply_move(full_state(clique(3)), Move(ADD, 0, 1))


class TestDynamics:
    def test_tree_start_stable_immediately(self):
        st_ = GameState(clique(5), [(0, i) for i in range(1, 5)])
        out = run_dynamics(st_, 1, policy="first", budget=100)
        assert out.terminal == "stable" and out.steps == 0
        assert out.final_state == st_

    def test_k4_small_alpha_reaches_tree(self):
        out = run_dynamics(full_state(clique(4)), Fraction(1, 2), policy="first", budget=100)
        assert out.terminal == "stable"
        assert out.final_state.is_tree

    def test_best_improving_policy(self):
        out = run_dynamics(full_state(clique(4)), Fraction(1, 2), policy="best", budget=100)
        assert out.terminal == "stable"
        assert out.final_state.is_tree

    def test_random_policy_needs_seed(self):
        with pytest.raises(ParameterError):
            run_dynamics(full_state(clique(4)), 1, policy="random")

    def test_reproducible(self):
        st_ = full_state(clique(5))
        a = run_dynamics(st_, Fraction(1, 2), policy="random", budget=50, seed=7)
        b = run_dynamics(st_, Fraction(1, 2), policy="random", budget=50, seed=7)
        assert a.trajectory == b.trajectory and a.terminal == b.terminal

    def test_budget_exhausted_is_outcome(self):
        out = run_dynamics(full_state(clique(5)), Fraction(1, 2), policy="first", budget=1)
        assert out.terminal == "budget-exhausted"
        assert out.steps == 1

    @pytest.mark.parametrize("policy", ["first", "best", "random"])
    def test_budget_ending_at_stable_state(self, policy):
        # the last look after the final move finds no improving move
        st_ = full_state(clique(4))
        out = run_dynamics(st_, Fraction(1, 2), policy=policy, budget=100, seed=2)
        assert out.terminal == "stable" and out.steps == 3
        short = run_dynamics(st_, Fraction(1, 2), policy=policy, budget=3, seed=2)
        assert short == out
        assert run_dynamics(st_, Fraction(1, 2), policy=policy, budget=2, seed=2).terminal == "budget-exhausted"

    @pytest.mark.parametrize("policy", ["first", "best", "random"])
    def test_walk_applies_no_move(self, monkeypatch, policy):
        def refuse(*args, **kwargs):
            raise AssertionError("apply_move called during a walk")

        host = clique(6)
        monkeypatch.setattr(game, "apply_move", refuse)
        out = run_dynamics(full_state(host), Fraction(1, 2), policy=policy, budget=100, seed=1)
        monkeypatch.undo()
        st_ = full_state(host)
        for key, mv in out.trajectory:
            assert (st_.host, st_.mask) == key
            st_ = apply_move(st_, mv)
        assert st_ == out.final_state
        assert out.terminal == "stable"

    @pytest.mark.parametrize("policy", ["first", "best", "random"])
    def test_revisit_ends_in_cycle(self, monkeypatch, policy):
        # no start state of K_5 at alpha 5/2 cycles under first or best, so
        # a two-state stub of the move scan drives one: drop edge (0, 1),
        # then add it back
        host = clique(4)
        full = (1 << host.m) - 1
        monkeypatch.setattr(game, "_improving_arcs", two_state_arcs)
        out = run_dynamics(full_state(host), Fraction(1, 2), policy=policy, budget=10, seed=1)
        assert out.terminal == "cycle" and out.cycle_start == 0
        assert out.trajectory == (
            ((host, full), Move(REMOVE, 0, 1)),
            ((host, full ^ 1), Move(ADD, 0, 1)),
        )
        assert out.final_state == full_state(host)

    def test_trajectory_replays(self):
        out = run_dynamics(full_state(clique(4)), Fraction(1, 2), policy="first", budget=100)
        host = clique(4)
        st_ = full_state(host)
        for key, mv in out.trajectory:
            assert (st_.host, st_.mask) == key
            assert mv in improving_moves(st_, Fraction(1, 2))
            st_ = apply_move(st_, mv)
        assert st_ == out.final_state
