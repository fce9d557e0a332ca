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
    add_move,
    apply_move,
    canonical_key,
    clique,
    cycle,
    enumerate_spanning_trees,
    full_state,
    improving_moves,
    is_pairwise_stable,
    parse_alpha,
    path,
    random_connected_host,
    remove_move,
    run_dynamics,
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


class TestAlpha:
    def test_parse_fraction(self):
        assert parse_alpha("7/3") == Fraction(7, 3)
        assert parse_alpha(" 2 ") == 2

    def test_rejects_decimals(self):
        with pytest.raises(ParameterError):
            parse_alpha("2.5")
        with pytest.raises(ParameterError):
            parse_alpha("1e-3")

    def test_rejects_nonpositive(self):
        for bad in ("0", "-1", "0/5"):
            with pytest.raises(ParameterError):
                parse_alpha(bad)

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
        moves = improving_moves(full_state(clique(5)), Fraction(1, 2), limit=2)
        assert len(moves) == 2

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
                assert improving_moves(st_, a, limit=k) == list(rep.witnesses[:k])


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
        b = apply_move(a, add_move(0, 3))
        c = apply_move(b, remove_move(0, 3))
        assert c == a

    def test_remove_bridge_errors(self):
        with pytest.raises(StructureError):
            apply_move(full_state(path(4)), remove_move(1, 2))

    def test_add_foreign_edge_errors(self):
        with pytest.raises(StructureError):
            apply_move(full_state(path(4)), add_move(0, 2))

    def test_add_active_edge_errors(self):
        with pytest.raises(StructureError):
            apply_move(full_state(clique(3)), add_move(0, 1))


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
    def test_walk_applies_no_move(self, monkeypatch, policy):
        def refuse(*args, **kwargs):
            raise AssertionError("apply_move called during a walk")

        host = clique(6)
        monkeypatch.setattr(game, "apply_move", refuse)
        out = run_dynamics(full_state(host), Fraction(1, 2), policy=policy, budget=100, seed=1)
        monkeypatch.undo()
        st_ = full_state(host)
        for key, mv in out.trajectory:
            assert canonical_key(st_) == key
            st_ = apply_move(st_, mv)
        assert st_ == out.final_state
        assert out.terminal == "stable"

    def test_trajectory_replays(self):
        out = run_dynamics(full_state(clique(4)), Fraction(1, 2), policy="first", budget=100)
        host = clique(4)
        st_ = full_state(host)
        for key, mv in out.trajectory:
            assert canonical_key(st_) == key
            assert mv in improving_moves(st_, Fraction(1, 2))
            st_ = apply_move(st_, mv)
        assert st_ == out.final_state
