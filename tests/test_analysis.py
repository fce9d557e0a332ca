import io
import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from sdncg import (
    BudgetExceededError,
    CertificateError,
    GameState,
    HostGraph,
    NoEquilibriumError,
    approximation_report,
    clique,
    cycle,
    enumerate_stable_states,
    find_improving_cycle,
    full_state,
    host_census,
    host_corpus,
    is_pairwise_stable,
    list_suites,
    mrcst_exact,
    optimum_complete_closed_form,
    optimum_exact,
    path,
    poa_exact,
    pos_exact,
    random_connected_host,
    replay_validates_cycle,
    routing_cost,
    social_welfare,
    star,
    sweep_cell,
    sweep_host,
    theorem_campaign,
    threshold_table,
    write_sweep_csv,
)
from sdncg import analysis, game, graphs
from sdncg.analysis import SWEEP_COLUMNS, format_exact


class TestOptimumExact:
    def test_k4_alpha_1_paths(self):
        res = optimum_exact(clique(4), 1, 1 << 8)
        assert res.welfare == 26
        assert len(res.best_states) == 12  # 4!/2 labeled paths
        for st in res.best_states:
            assert st.is_tree
            assert max(st.degree(v) for v in range(4)) == 2

    def test_k4_alpha_2_clique(self):
        res = optimum_exact(clique(4), 2, 1 << 8)
        assert res.welfare == 36
        assert res.best_states == (full_state(clique(4)),)

    def test_c6_host_alpha_7(self):
        res = optimum_exact(cycle(6), 7, 1 << 8)
        assert res.welfare == 140
        assert all(st.is_tree for st in res.best_states)
        assert social_welfare(full_state(cycle(6)), 7) == 138

    def test_budget_overflow(self):
        with pytest.raises(BudgetExceededError):
            optimum_exact(clique(6), 1, 1 << 4)

    def test_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(6):
            h = random_connected_host(rng.randint(3, 6), rng.uniform(0.3, 0.9), rng)
            for a in (Fraction(1, 2), Fraction(2)):
                res = optimum_exact(h, a, 1 << 16)
                brute = max(
                    oracles.welfare(h.n, sub, a)
                    for sub in oracles.connected_spanning_subgraphs(h.n, h.edges)
                )
                assert res.welfare == brute


def _census_hosts():
    # random hosts with at least one cycle and at most 9 edges, so that the
    # brute-force reference stays quick, plus K_4 and K_5
    rng = random.Random(71)
    hosts = []
    while len(hosts) < 10:
        h = random_connected_host(rng.randint(4, 7), rng.uniform(0.15, 0.6), rng)
        if h.n <= h.m <= 9:
            hosts.append(h)
    return hosts + [clique(4), clique(5)]


CENSUS_HOSTS = _census_hosts()


def _refuse(*args, **kwargs):
    raise AssertionError("a census was built")


class TestHostCensus:
    @pytest.mark.parametrize(
        "host", CENSUS_HOSTS, ids=[f"n{h.n}-m{h.m}-{i}" for i, h in enumerate(CENSUS_HOSTS)]
    )
    def test_matches_per_alpha_reference(self, host):
        budget = 1 << host.m
        recs = host_census(host, budget)
        assert [r[0] for r in recs] == sorted(r[0] for r in recs)
        assert len(recs) == len(oracles.connected_spanning_subgraphs(host.n, host.edges))
        # every interval end, each side of it, and one alpha below them all
        ends = {b for rec in recs for b in rec[3:] if b is not None}
        alphas = sorted(
            {Fraction(1, 3)} | {b + d for b in ends for d in (Fraction(-1, 2), 0, Fraction(1, 2))}
        )
        rows = []
        for a in alphas:
            opt, opt_sets, stable_sets, stable_w = oracles.reference_optimum_and_atlas(
                host.n, host.edges, a
            )
            res = optimum_exact(host, a, budget)
            assert res.welfare == opt
            assert [st.active for st in res.best_states] == opt_sets
            assert res.states_examined == len(recs)
            atlas = enumerate_stable_states(host, a, budget)
            assert [st.active for st in atlas.stable_states] == stable_sets
            assert list(atlas.welfares) == stable_w
            if stable_w:
                poa, pos = opt / min(stable_w), opt / max(stable_w)
                assert poa_exact(host, a, budget) == poa
                assert pos_exact(host, a, budget) == pos
            else:
                poa = pos = None
                with pytest.raises(NoEquilibriumError):
                    poa_exact(host, a, budget)
                with pytest.raises(NoEquilibriumError):
                    pos_exact(host, a, budget)
            row = sweep_cell(host, a, budget)
            assert row == {
                "n": host.n,
                "m": host.m,
                "alpha_num": a.numerator,
                "alpha_den": a.denominator,
                "sw_opt": format_exact(opt),
                "sw_worst_stable": format_exact(min(stable_w, default=None)),
                "sw_best_stable": format_exact(max(stable_w, default=None)),
                "poa": format_exact(poa),
                "pos": format_exact(pos),
                "stable_count": len(stable_sets),
                "states_examined": len(recs),
                "poa_approx": "" if poa is None else f"{float(poa):.6g}",
                "pos_approx": "" if pos is None else f"{float(pos):.6g}",
            }
            rows.append(row)
        assert sweep_host(host, alphas, budget) == rows

    def test_budget_checked_before_cache(self, monkeypatch):
        host_census(clique(6), 1 << 15)
        monkeypatch.setattr(analysis, "_census_records", _refuse)
        with pytest.raises(BudgetExceededError):
            optimum_exact(clique(6), 1, 1 << 4)
        with pytest.raises(BudgetExceededError):
            sweep_host(clique(6), [1], 1 << 4)

    def test_budget_checked_before_build(self, monkeypatch):
        monkeypatch.setattr(analysis, "_census_records", _refuse)
        with pytest.raises(BudgetExceededError):
            host_census(clique(7), 1 << 20)

    def test_campaign_census_reused(self, monkeypatch):
        assert theorem_campaign("complete-optimum", seed=0)["passed"]
        monkeypatch.setattr(analysis, "_census_records", _refuse)
        assert poa_exact(clique(6), 1, 1 << 16) == Fraction(4, 3)


# a branching tree host, where every removal is a bridge (lo is None), and a
# cycle host, whose other states are paths
BUILDER_HOSTS = CENSUS_HOSTS + [
    HostGraph(7, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)]),
    cycle(6),
]


def _oracle_census(host):
    """The census state by state: BFS routing cost and the full move scan."""
    recs = []
    for sub in oracles.connected_spanning_subgraphs(host.n, host.edges):
        st = GameState(host, sub)
        recs.append((st.mask, len(sub), routing_cost(st), *game.stability_interval(st)))
    return tuple(sorted(recs))


class TestCensusBuilder:
    @pytest.mark.parametrize(
        "host", BUILDER_HOSTS, ids=[f"n{h.n}-m{h.m}-{i}" for i, h in enumerate(BUILDER_HOSTS)]
    )
    def test_matches_per_state_oracle(self, host):
        assert host_census(host, 1 << host.m) == _oracle_census(host)

    def test_k5_lattice_work(self, monkeypatch):
        # K_5: 848 masks with at least 4 of the 10 edges, 728 of them
        # connected; one BFS decides connectivity, and a connected state
        # needs the 4 other sources; no move scan and no distance row
        calls = []
        kernel = graphs._bfs

        def counted(nbr, sources, allowed=-1, row=None):
            assert row is None, "the census built a distance row"
            calls.append(sources)
            return kernel(nbr, sources, allowed)

        def refuse(*args, **kwargs):
            raise AssertionError("the census ran a move scan or built a distance row")

        monkeypatch.setattr(analysis, "_bfs", counted)
        for mod, name in (
            (game, "removal_increases"),
            (game, "addition_decreases"),
            (game, "stability_interval"),
            (analysis, "removal_increases"),
            (analysis, "stability_interval"),
            (graphs, "bfs_all_pairs"),
        ):
            monkeypatch.setattr(mod, name, refuse)
        recs = analysis._census_records(clique(5))
        assert len(recs) == 728
        assert calls.count(1) == 848  # sources mask of node 0
        assert len(calls) == 848 + 4 * 728 == 3760

    def test_unconfirmed_interval_raises(self, monkeypatch):
        # a census that claims K_4's host state is stable everywhere; at
        # alpha = 1/2 every removal helps, so the full check refutes it
        host = clique(4)
        full_mask = (1 << host.m) - 1
        fake = ((full_mask, host.m, routing_cost(full_state(host)), None, None),)
        monkeypatch.setattr(analysis, "host_census", lambda *a, **k: fake)
        with pytest.raises(CertificateError, match=f"mask {full_mask}"):
            enumerate_stable_states(host, Fraction(1, 2), 1 << 8)


class TestCompleteClosedForm:
    def test_examples(self):
        assert optimum_complete_closed_form(6, 2).kind == "both"
        assert optimum_complete_closed_form(6, 2).welfare == 90
        assert optimum_complete_closed_form(6, 1).kind == "path"
        assert optimum_complete_closed_form(6, 5).kind == "clique"

    def test_agrees_with_enumeration(self):
        for n in (4, 5, 6):
            for da in (-1, 0, 1):
                a = Fraction(n, 3) + da
                if a <= 0:
                    continue
                res = optimum_exact(clique(n), a, 1 << 16)
                expect = optimum_complete_closed_form(n, a)
                assert res.welfare == expect.welfare
                if expect.kind == "both":
                    assert len(res.best_states) > 1


class TestStableStates:
    def test_k5_alpha_3_unique_clique(self):
        atlas = enumerate_stable_states(clique(5), 3, 1 << 12)
        assert atlas.stable_count == 1
        assert atlas.stable_states[0] == full_state(clique(5))

    def test_k4_alpha_half_sixteen_trees(self):
        atlas = enumerate_stable_states(clique(4), Fraction(1, 2), 1 << 8)
        assert atlas.stable_count == 16
        assert all(st.is_tree for st in atlas.stable_states)

    def test_tree_host_single_state(self):
        for a in (Fraction(1, 2), Fraction(5)):
            atlas = enumerate_stable_states(star(5), a, 1 << 8)
            assert atlas.stable_count == 1
            assert atlas.stable_states[0] == full_state(star(5))

    def test_small_alpha_only_trees(self):
        rng = random.Random(47)
        for _ in range(4):
            h = random_connected_host(rng.randint(3, 6), rng.uniform(0.4, 0.9), rng)
            atlas = enumerate_stable_states(h, Fraction(3, 4), 1 << 16)
            assert all(st.is_tree for st in atlas.stable_states)
            trees = oracles.spanning_trees_brute(h.n, h.edges)
            assert atlas.stable_count == len(trees)

    def test_every_listed_state_confirmed(self):
        atlas = enumerate_stable_states(clique(4), 1, 1 << 8)
        for st in atlas.stable_states:
            assert is_pairwise_stable(st, 1).stable


class TestPoaPos:
    def test_poa_k6_alpha_1(self):
        assert poa_exact(clique(6), 1, 1 << 16) == Fraction(4, 3)

    def test_pos_k6_alpha_1(self):
        assert pos_exact(clique(6), 1, 1 << 16) == 1

    def test_poa_one_above_clique_threshold(self):
        assert poa_exact(clique(5), 3, 1 << 12) == 1

    def test_pos_le_poa(self):
        rng = random.Random(53)
        for _ in range(4):
            h = random_connected_host(rng.randint(3, 6), rng.uniform(0.3, 0.8), rng)
            for a in (Fraction(1, 2), Fraction(2)):
                assert pos_exact(h, a, 1 << 16) <= poa_exact(h, a, 1 << 16)

    def test_poa_pos_one_above_host_optimal(self):
        rng = random.Random(59)
        for _ in range(4):
            h = random_connected_host(rng.randint(3, 6), rng.uniform(0.3, 0.8), rng)
            a = Fraction((h.n - 2) * h.n * (h.n + 2), 24) + 1
            assert poa_exact(h, a, 1 << 16) == 1
            assert pos_exact(h, a, 1 << 16) == 1


class TestThresholds:
    def test_values(self):
        t = threshold_table(10)
        assert t.host_optimal == 40
        assert t.host_unique == Fraction(81, 4)
        assert threshold_table(3).clique_optimal == 1

    def test_ordering_from_n6(self):
        for n in range(6, 40):
            t = threshold_table(n)
            assert t.host_unique < t.host_optimal
            assert t.clique_optimal > 0 and t.path_stable_limit > 0


class TestImprovingCycle:
    def test_found_at_n5(self):
        out = find_improving_cycle(5, Fraction(5, 2), search_budget=10**6, seed=3)
        assert out is not None and out.terminal == "cycle"
        assert replay_validates_cycle(out, Fraction(5, 2))

    def test_not_found_small_budget(self):
        assert find_improving_cycle(4, Fraction(1, 2), search_budget=40, seed=0) is None

    @pytest.mark.parametrize(
        "n, alpha, budget, seed",
        [
            (4, Fraction(1, 2), 40, 0),
            # the budget runs out on a stable state: the last look decides
            (4, Fraction(1, 2), 11, 0),
            (5, Fraction(5, 2), 3000, 0),
            (5, Fraction(5, 2), 10**6, 3),
            (5, Fraction(5, 2), 10**6, 5),
            (6, Fraction(3), 2000, 0),
        ],
    )
    def test_matches_rescanning_reference(self, monkeypatch, n, alpha, budget, seed):
        self._check_against_reference(monkeypatch, n, alpha, budget, seed)

    @pytest.mark.parametrize(
        "n, alpha, budget, seed",
        [(4, Fraction(1, 2), 40, 0), (5, Fraction(5, 2), 10**6, 3)],
    )
    def test_arcs_built_without_apply_move(self, monkeypatch, n, alpha, budget, seed):
        # an arc's next mask toggles the move's edge bit; no state is built for it
        def refuse(*args, **kwargs):
            raise AssertionError("apply_move called while building arcs")

        monkeypatch.setattr(game, "apply_move", refuse)
        self._check_against_reference(monkeypatch, n, alpha, budget, seed)

    @staticmethod
    def _check_against_reference(monkeypatch, n, alpha, budget, seed):
        # record every restart's walk, not only the returned one
        walks = []
        walk = analysis.run_dynamics

        def recorded(*args, **kwargs):
            out = walk(*args, **kwargs)
            steps = [(mask, (mv.kind, mv.u, mv.v)) for (_, mask), mv in out.trajectory]
            walks.append((out.terminal, out.cycle_start, steps, out.final_state.mask))
            return out

        monkeypatch.setattr(analysis, "run_dynamics", recorded)
        out = find_improving_cycle(n, alpha, search_budget=budget, seed=seed)
        found, want = oracles.reference_improving_cycle(n, alpha, budget, seed)
        assert (out is not None) == found
        assert walks == want
        if found:
            assert walks[-1][0] == out.terminal == "cycle"

    def test_each_state_scanned_once(self, monkeypatch):
        scanned = Counter()
        scan = game.improving_moves

        def counted(state, *args, **kwargs):
            scanned[state.mask] += 1
            return scan(state, *args, **kwargs)

        monkeypatch.setattr(game, "improving_moves", counted)
        out = find_improving_cycle(5, Fraction(5, 2), search_budget=10**6, seed=3)
        assert out is not None and out.terminal == "cycle"
        assert set(scanned.values()) == {1}
        # K_5 has 728 connected spanning subgraphs
        assert sum(scanned.values()) <= 728


class TestApproximationReport:
    def test_k4(self):
        rep = approximation_report(clique(4), 1, subset_budget=1 << 8)
        assert rep["ratio_mrcst"] == 1
        assert rep["ratio_mrcst"] <= rep["ratio_bound"] == 3

    def test_tree_host(self):
        for h in (star(5), star(6)):
            rep = approximation_report(h, 1, subset_budget=1 << 6)
            assert rep["ratio_mrcst"] == rep["ratio_smrcst"] == 1
            assert rep["ratio_bound"] == 2

    def test_k6(self):
        rep = approximation_report(clique(6), 1, subset_budget=1 << 16)
        assert rep["ratio_mrcst"] <= rep["ratio_bound"] == Fraction(15, 5) + 1


class TestMrcstOptimality:
    def test_small_alpha_mrcst_is_optimal(self):
        rng = random.Random(61)
        for _ in range(4):
            h = random_connected_host(rng.randint(3, 7), rng.uniform(0.2, 0.5), rng)
            mr = mrcst_exact(h)
            for a in (Fraction(1, 2), Fraction(1)):
                assert social_welfare(mr.tree, a) == optimum_exact(h, a, 1 << 22).welfare


class TestHostUniqueness:
    def test_above_threshold(self):
        rng = random.Random(67)
        for _ in range(4):
            h = random_connected_host(rng.randint(3, 6), rng.uniform(0.2, 0.6), rng)
            a = Fraction((h.n - 1) ** 2, 4) + 1
            atlas = enumerate_stable_states(h, a, 1 << 16)
            assert [st.mask for st in atlas.stable_states] == [(1 << h.m) - 1]


class TestCorpus:
    def test_deterministic(self):
        a = host_corpus(10, (4, 8), (0.2, 0.5), seed=99)
        b = host_corpus(10, (4, 8), (0.2, 0.5), seed=99)
        assert a == b

    def test_respects_bounds(self):
        for h in host_corpus(20, (4, 8), (0.2, 0.5), seed=1, max_edges=12):
            assert 4 <= h.n <= 8 and h.m <= 12


class TestSweep:
    def test_cell_and_csv(self):
        rows = [sweep_cell(clique(4), Fraction(1, 2), 1 << 8), sweep_cell(clique(4), 2, 1 << 8)]
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        first = dict(zip(SWEEP_COLUMNS, lines[1].split(",")))
        assert first["n"] == "4" and first["alpha_den"] == "2"
        assert first["stable_count"] == "16"

    def test_exact_formatting(self):
        row = sweep_cell(clique(6), 1, 1 << 16)
        assert row["poa"] == "4/3"
        assert row["pos"] == "1"
        assert row["sw_opt"] == "80"


class TestCampaignPlumbing:
    def test_suite_listing(self):
        suites = list_suites()
        assert "closed-forms" in suites and "poa-pos" in suites

    def test_unknown_suite(self):
        from sdncg import ParameterError

        with pytest.raises(ParameterError):
            theorem_campaign("nope")

    def test_report_shape(self):
        rep = theorem_campaign("closed-forms", seed=0, n_max=12)
        assert rep["suite"] == "closed-forms"
        assert rep["passed"] is True
        assert all({"id", "pass", "detail"} <= set(c) for c in rep["claims"])


def test_no_equilibrium_error_path(monkeypatch):
    # artificial: no real host here has an empty stable set, so the ratio
    # queries read a census whose only state is unstable at alpha = 1
    h = path(3)
    atlas = enumerate_stable_states(h, 1, 1 << 8)
    assert atlas.stable_count == 1  # tree host: the host itself
    # empty atlases raise on ratio queries
    (mask, cnt, rc, lo, hi), = analysis.host_census(h, 1 << 8)
    fake = ((mask, cnt, rc, 2, hi),)  # stable only from alpha = 2 on
    monkeypatch.setattr(analysis, "host_census", lambda *a, **k: fake)
    with pytest.raises(NoEquilibriumError):
        poa_exact(h, 1, 1 << 8)
    with pytest.raises(NoEquilibriumError):
        pos_exact(h, 1, 1 << 8)
