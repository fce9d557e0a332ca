import dataclasses
import gc
import io
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sdncg import (
    ADD,
    REMOVE,
    BudgetExceededError,
    CertificateError,
    DynamicsOutcome,
    GameState,
    HostGraph,
    Move,
    NoEquilibriumError,
    ParameterError,
    approximation_report,
    clique,
    cycle,
    enumerate_stable_states,
    extend_to_spanning_tree,
    find_improving_cycle,
    full_state,
    greedy_long_path,
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
    smrcst,
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
from sdncg.spanning import SmrcstResult


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


@pytest.fixture
def inserts(monkeypatch):
    """``(u, v, lanes)`` of every edge insertion the census builds make: the
    root block's low edges go into 1, 2, 4, ... 2^(k-1) lanes, the walk's
    high edges into all 2^k lanes of a block."""
    calls = []
    insert = analysis._insert

    def counted(D, u, v, one, *args):
        calls.append((u, v, one.bit_count()))
        return insert(D, u, v, one, *args)

    monkeypatch.setattr(analysis, "_insert", counted)
    return calls


def _high(inserts, k):
    """The (u, v) of the high-edge insertions, in walk order."""
    return [(u, v) for u, v, lanes in inserts if lanes == 1 << k]


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
        # a census built once under a large budget lets no later small one pass
        host_census(clique(6), 1 << 15)
        monkeypatch.setattr(analysis, "_census_sums", _refuse)
        with pytest.raises(BudgetExceededError):
            optimum_exact(clique(6), 1, 1 << 4)
        with pytest.raises(BudgetExceededError):
            sweep_host(clique(6), [1], 1 << 4)

    def test_budget_checked_before_build(self, monkeypatch):
        monkeypatch.setattr(analysis, "_census_sums", _refuse)
        with pytest.raises(BudgetExceededError):
            host_census(clique(7), 1 << 20)

    def test_negative_budget_refused_before_build(self, monkeypatch):
        monkeypatch.setattr(analysis, "_census_sums", _refuse)
        with pytest.raises(ParameterError, match="nonnegative, got -1"):
            host_census(clique(3), -1)
        for read in (optimum_exact, enumerate_stable_states, poa_exact, pos_exact, sweep_cell):
            with pytest.raises(ParameterError):
                read(clique(3), 1, -1)
        with pytest.raises(ParameterError):
            sweep_host(clique(3), [1], -1)

    def test_census_keeps_no_state(self, inserts):
        # a second call builds the same census again, insertion for insertion
        first = host_census(clique(5), 1 << 10)
        once = len(inserts)
        assert host_census(clique(5), 1 << 10) == first
        assert len(_high(inserts[:once], 8)) == 3 and inserts == 2 * inserts[:once]

    def test_campaign_census_reused(self, monkeypatch):
        # the K_n censuses outlive the suite that built them
        assert theorem_campaign("complete-optimum", seed=0)["passed"]
        monkeypatch.setattr(analysis, "host_census", _refuse)
        classes = analysis._classes(analysis._complete_census(6)[1])
        opt, _, worst, _ = analysis._read_census(classes, Fraction(1))
        assert Fraction(opt, worst) == Fraction(4, 3)

    def test_campaign_builds_each_host_once(self, monkeypatch):
        # suites in campaign order: the K_n censuses are built once for all
        # of them, and each suite builds one census, SMRCST and MRCST per host
        analysis._complete_census.cache_clear()
        calls = {"host_census": [], "smrcst": [], "mrcst_exact": []}
        for name, hosts in calls.items():

            def counted(host, *args, _fn=getattr(analysis, name), _hosts=hosts, **kwargs):
                _hosts.append(host)
                return _fn(host, *args, **kwargs)

            monkeypatch.setattr(analysis, name, counted)
        per_suite = {}
        for suite in (
            "complete-optimum",
            "complete-stability",
            "mrcst-optimality",
            "host-uniqueness",
            "poa-pos",
            "smrcst-certificates",
        ):
            before = {name: len(hosts) for name, hosts in calls.items()}
            assert theorem_campaign(suite, seed=0)["passed"]
            per_suite[suite] = {name: len(hosts) - before[name] for name, hosts in calls.items()}
        assert [calls["host_census"].count(clique(n)) for n in (4, 5, 6)] == [1, 1, 1]
        assert per_suite["poa-pos"] == {"host_census": 20, "smrcst": 0, "mrcst_exact": 0}
        assert per_suite["smrcst-certificates"] == {
            "host_census": 50,
            "smrcst": 250,
            "mrcst_exact": 50,
        }


TREE_HOST = HostGraph(7, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])
HUB_HOST = HostGraph(7, [(0, i) for i in range(1, 7)] + [(1, 2), (2, 3), (4, 5), (5, 6)])


def _lane_width_hosts():
    # a cycle and two random hosts for every n from 3 to 10, dense up to
    # n = 7 and sparse from n = 8 on, so the oracle's subsets stay few
    rng = random.Random(72)
    hosts = []
    for n in range(3, 11):
        hosts.append(cycle(n))
        while len(hosts) % 3:
            h = random_connected_host(n, 0.5 if n < 8 else 0.05, rng)
            if h.m <= 12:
                hosts.append(h)
    return hosts


# a branching tree host, where every removal is a bridge (lo is None); a
# cycle host, whose other states are paths; the smallest host; and two hosts
# whose lowest-index edges are node 0's, so that the prefixes of the high
# edges stay disconnected until the last decisions: a hub with a few edges
# among its leaves, and a pendant node 0 on a dense rest
BUILDER_HOSTS = CENSUS_HOSTS + [
    TREE_HOST,
    cycle(6),
    HostGraph(2, [(0, 1)]),
    HUB_HOST,
    HostGraph(6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (2, 5)]),
] + _lane_width_hosts()


def _block_hosts():
    # the block boundary: m = 7 and 8 fill one block (k = m), m = 9 leaves
    # one high edge (k = 8 < m); then the switch from byte to 16-bit lanes,
    # at n(n-1)/2 = 120 (n = 16) and 136 (n = 17): a cycle, whose paths reach
    # the largest sum, and a random tree plus one edge at each n
    rng = random.Random(73)
    hosts = []
    for m in (7, 8, 9):
        h = random_connected_host(6, 0.5, rng)
        while h.m != m:
            h = random_connected_host(6, 0.5, rng)
        hosts.append(h)
    for n in (16, 17):
        h = random_connected_host(n, 0.01, rng)
        while h.m != n:
            h = random_connected_host(n, 0.01, rng)
        hosts += [cycle(n), h]
    return hosts + [cycle(12)]


# appended last, so that the ids of the hosts above keep their indices
BUILDER_HOSTS += _block_hosts()


def _oracle_census(host):
    """The census state by state: BFS routing cost and the full move scan."""
    recs = []
    for sub in oracles.connected_spanning_subgraphs(host.n, host.edges):
        st = GameState(host, sub)
        recs.append((st.mask, len(sub), routing_cost(st), *game.stability_interval(st)))
    return tuple(sorted(recs))


def _split_hosts():
    rng = random.Random(74)
    h = random_connected_host(6, 0.5, rng)
    while h.m != 9:
        h = random_connected_host(6, 0.5, rng)
    return [clique(5), TREE_HOST, cycle(12), HUB_HOST, h]


class TestCensusBuilder:
    @pytest.mark.parametrize(
        "host", BUILDER_HOSTS, ids=[f"n{h.n}-m{h.m}-{i}" for i, h in enumerate(BUILDER_HOSTS)]
    )
    def test_matches_per_state_oracle(self, host):
        assert host_census(host, 1 << host.m) == _oracle_census(host)

    def test_k5_lattice_work(self, monkeypatch, inserts):
        # K_5: the root block takes the 8 low edges into 1, 2, 4, ... 128
        # lanes; the walk decides the two high edges, 9 and 8, with 3
        # insertions into all 256 lanes (edge 9 in, then edge 8 in under
        # both) and keeps 4 blocks, where a walk to the leaves would need
        # 2^10 - 1 insertions; no move scan, no BFS and no distance row
        host = clique(5)

        def refuse(*args, **kwargs):
            raise AssertionError("the census ran a move scan, a BFS or built a distance row")

        for mod, name in (
            (game, "removal_increases"),
            (game, "addition_decreases"),
            (game, "stability_interval"),
            (game, "_bfs"),
            (game, "_removal_rises"),
            (game, "_non_unit_removals"),
            (analysis, "stability_interval"),
            (graphs, "bfs_all_pairs"),
            (graphs, "_bfs"),
        ):
            monkeypatch.setattr(mod, name, refuse)
        recs = host_census(host, 1 << 10)
        assert len(recs) == 728
        assert inserts == [(*e, 1 << j) for j, e in enumerate(host.edges[:8])] + [
            host.edges[9] + (256,),
            host.edges[8] + (256,),
            host.edges[8] + (256,),
        ]
        assert len({mask >> 8 for mask, *_ in recs}) == 4
        # with blocks of 2^2 completions the walk decides edges 9 down to 2,
        # and its pruning shows: of the 2^8 prefixes, 31 are never reached,
        # as they leave out (0, 4) or (0, 3), the last edge that could touch
        # node 4 or 3, while no edge above it in the prefix does, or leave
        # too few edges to reach 4. The 8 branches cut at (0, 4) each lose
        # the insertion of (0, 3) below them, so 247 insertions stand where
        # an unpruned walk makes 255; of the 225 leaves, 224 keep a
        # connected lane; same records
        inserts.clear()
        monkeypatch.setattr(analysis, "_BLOCK_EDGES", 2)
        assert host_census(host, 1 << 10) == recs
        assert inserts[:2] == [(0, 1, 1), (0, 2, 2)]
        assert len(_high(inserts, 2)) == len(inserts) - 2 == (1 << 8) - 1 - 8 == 247
        assert len({mask >> 2 for mask, *_ in recs}) == (1 << 8) - 31 - 1 == 224

    @pytest.mark.parametrize("host", [TREE_HOST, path(20)], ids=["tree-n7", "path-n20"])
    def test_tree_host_is_linear(self, inserts, host):
        # a tree host has one state: every subtree that leaves a high edge
        # out is skipped at once, so the walk inserts each high edge once
        # into the root block and keeps one block, not 2^m leaves
        full = full_state(host)
        lo, hi = game.stability_interval(full)
        assert host_census(host) == ((full.mask, host.m, routing_cost(full), lo, hi),)
        k = min(host.m, 8)
        assert _high(inserts, k) == list(reversed(host.edges[k:]))
        assert len(inserts) == host.m

    @pytest.mark.parametrize(
        "host", _split_hosts(), ids=["K5", "tree-n7", "cycle-n12", "hub-n7", "random-n6-m9"]
    )
    def test_low_high_split(self, monkeypatch, host):
        # every k from 1 to min(m, 10) puts other edges in the root block and
        # in the walk: the doubled low-edge insertion and the whole-block
        # high-edge insertion agree whichever edges are low
        recs = host_census(host, 1 << host.m)
        for k in range(1, min(host.m, 10) + 1):
            monkeypatch.setattr(analysis, "_BLOCK_EDGES", k)
            assert host_census(host, 1 << host.m) == recs, k

    @pytest.mark.parametrize("n", [2, 3, 6, 9, 16, 17])
    def test_path_sum_at_connectivity_bound(self, n):
        # node 0 ends the path, so its distance sum is exactly n(n-1)/2 and
        # only the lane of the whole path is kept: in bytes up to n = 16,
        # whose 120 is the largest byte-lane sum, and in 16 bits from n = 17
        k = min(n - 1, 8)
        block_lanes = analysis._block_lanes(n, k)
        (prefix, (conn, sums)), = analysis._census_sums(path(n), k, block_lanes).items()
        w = block_lanes[0]
        assert (w, prefix) == (8 if n <= 16 else 16, (1 << (n - 1)) - (1 << k))
        assert conn == 1 << (w << k) - 1
        assert sums[0] >> (w << k) - w == n * (n - 1) // 2

    @given(st.integers(0, 10**6), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_random_hosts_match_oracle(self, seed, n):
        rng = random.Random(seed)
        host = random_connected_host(n, rng.uniform(0.1, 0.6), rng)
        assert host_census(host, 1 << host.m) == _oracle_census(host)

    def test_build_leaves_no_cyclic_garbage(self):
        # the walk holds no reference cycle: with the collector off, the
        # build and its result are freed by reference counting alone
        host = clique(5)
        gc.collect()
        gc.disable()
        try:
            recs = host_census(host, 1 << 10)
            del recs
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unconfirmed_interval_raises(self, monkeypatch):
        # a census that claims K_4's host state is stable everywhere; at
        # alpha = 1/2 every removal helps, so the full check refutes it
        host = clique(4)
        full_mask = (1 << host.m) - 1
        fake = ((full_mask, host.m, routing_cost(full_state(host)), None, None),)
        monkeypatch.setattr(analysis, "host_census", lambda *a, **k: fake)
        with pytest.raises(CertificateError, match=f"mask {full_mask}"):
            enumerate_stable_states(host, Fraction(1, 2), 1 << 8)


def _lemma_hosts():
    # K_3 to K_5, every state, and 30 random hosts with cycles to spare
    rng = random.Random(24)
    hosts = [clique(3), clique(4), clique(5)]
    while len(hosts) < 33:
        h = random_connected_host(rng.randint(5, 8), rng.uniform(0.2, 0.6), rng)
        if 9 <= h.m <= 12:
            hosts.append(h)
    return hosts


LEMMA_HOSTS = _lemma_hosts()


class TestUnitRemovals:
    @pytest.mark.parametrize(
        "host", LEMMA_HOSTS, ids=[f"n{h.n}-m{h.m}-{i}" for i, h in enumerate(LEMMA_HOSTS)]
    )
    def test_matches_removal_scan_per_endpoint(self, host):
        # the sole-first-hop test says "rise of exactly 1" for an endpoint iff
        # the removal is legal and its BFS rise for that endpoint is 1
        for mask, *_ in host_census(host):
            st_ = GameState._from_mask(host, mask)
            unit = game._unit_removals(st_)
            for u, v in st_.active:
                inc = game.removal_increases(st_, u, v)
                assert bool(unit[u] >> v & 1) == (inc is not None and inc[0] == 1), (mask, u, v)
                assert bool(unit[v] >> u & 1) == (inc is not None and inc[1] == 1), (mask, u, v)


def _fails_lemma(host, mask):
    """``_unit_removals`` on one state: some active edge lacks a unit rise
    at one of its ends."""
    st_ = GameState._from_mask(host, mask)
    unit = game._unit_removals(st_)
    return not all(unit[u] >> v & 1 and unit[v] >> u & 1 for u, v in st_.active)


def _chained_scan(host, masks):
    """``_non_unit_removals`` spelled out: the per-state removal scan chained
    over the masks, rises of 1 left out."""
    return [
        (mask, u, v, rise)
        for mask in masks
        for u, v, rise in game._removal_rises(GameState._from_mask(host, mask))
        if rise != 1
    ]


def _alpha_one_states(n):
    # the non-tree states of K_n stable at alpha = 1, as the claim reads them
    host, recs = analysis._complete_census(n)
    return host, sorted(mask for mask, cnt, _, lo, hi in recs if cnt >= n and game._in_interval(lo, hi, 1, 1))


SET_FORM_HOSTS = [clique(6), *LEMMA_HOSTS]


class TestUnitLanes:
    @pytest.mark.parametrize(
        "host", SET_FORM_HOSTS, ids=[f"n{h.n}-m{h.m}-{i}" for i, h in enumerate(SET_FORM_HOSTS)]
    )
    def test_lanes_fail_exactly_the_states_the_lemma_fails(self, host):
        # every connected spanning state, trees and the full state included,
        # in one lane pass; bridges fail the shared-neighbour test
        recs = host_census(host)
        masks = [mask for mask, *_ in recs]
        verdicts = game._non_unit_lanes(host, masks)
        assert verdicts == tuple(int(_fails_lemma(host, mask)) for mask in masks)
        assert all(verdicts[i] for i, (_, cnt, *_) in enumerate(recs) if cnt == host.n - 1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_clique_passes_and_the_alpha_one_set_is_certified(self, n):
        host, masks = _alpha_one_states(n)
        full = (1 << host.m) - 1
        assert full in masks
        assert game._non_unit_lanes(host, masks) == (0,) * len(masks)
        assert len(masks) == {3: 1, 4: 7, 5: 66, 6: 1713}[n]


class TestNonUnitRemovals:
    def test_k5_lists_match_the_chained_scan(self):
        host, recs = analysis._complete_census(5)
        non_trees = [mask for mask, cnt, *_ in recs if cnt >= 5]
        assert len(non_trees) == 603
        rng = random.Random(37)
        lists = [non_trees, _alpha_one_states(5)[1], non_trees[::-1]]
        lists += [rng.sample(non_trees, k) for k in (1, 2, 17, 300)]
        for masks in lists:
            assert list(game._non_unit_removals(host, masks)) == _chained_scan(host, masks)

    def test_crafted_lists(self):
        host = clique(5)
        full = (1 << host.m) - 1
        tree = path(5).edges
        tree_mask = sum(1 << host.edge_index[e] for e in tree)
        # the 5-cycle 0-1-2-3-4: removing (0, 1) puts 1 at distance 4 from 0
        assert next(game._non_unit_removals(host, [665])) == (665, 0, 1, 4)
        # a tree fails the lanes on its bridges, and the scan finds no legal removal
        assert game._non_unit_lanes(host, [tree_mask, full]) == (1, 0)
        assert list(game._non_unit_removals(host, [tree_mask, full])) == []
        assert list(game._non_unit_removals(host, [])) == []
        assert game._non_unit_lanes(host, []) == ()
        masks = [full, 665, tree_mask, 665]
        assert list(game._non_unit_removals(host, masks)) == _chained_scan(host, masks)

    def test_alpha_one_set_runs_no_scan(self, monkeypatch):
        # K_6's 1,713 non-tree alpha-one states are certified in lanes: the
        # per-state removal scan runs on none of them
        host, masks = _alpha_one_states(6)
        scan = game._removal_rises
        calls = []

        def counted(state):
            calls.append(state.mask)
            return scan(state)

        monkeypatch.setattr(game, "_removal_rises", counted)
        assert list(game._non_unit_removals(host, masks)) == []
        assert calls == []
        # a list with the 5-cycle of K_5 scans that state alone
        k5 = clique(5)
        assert next(game._non_unit_removals(k5, [(1 << k5.m) - 1, 665, 665])) == (665, 0, 1, 4)
        assert calls == [665]


def _tampered_census(monkeypatch, n, change):
    """Make the campaigns read K_n's census with ``change(recs)`` applied."""
    real = analysis._complete_census

    def fake(k):
        host, recs = real(k)
        return (host, change(recs)) if k == n else (host, recs)

    monkeypatch.setattr(analysis, "_complete_census", fake)


def _claim_detail(suite, cid):
    (claim,) = [c for c in theorem_campaign(suite, seed=0)["claims"] if c["id"] == cid]
    return claim["pass"], claim["detail"]


class TestCompleteStabilityFailures:
    def test_alpha_one_names_the_failing_removal(self, monkeypatch):
        # the 5-cycle 0-1-2-3-4 (mask 665), claimed stable at alpha = 1 only
        def five_cycle_at_one(recs):
            return tuple(r[:3] + (1, 1) if r[0] == 665 else r for r in recs)

        _tampered_census(monkeypatch, 5, five_cycle_at_one)
        ok, detail = _claim_detail("complete-stability", "complete-stability-n5-alpha-one")
        assert not ok
        assert detail == "mask 665: removal (0,1) raises a sum by 4, not 1"

    def test_crosscheck_names_the_shifted_record(self, monkeypatch):
        # the first sampled tree, its interval shifted up by one: lo becomes 1,
        # so the census calls it unstable at alpha = 3/4
        host, recs = analysis._complete_census(4)
        sample = random.Random(4).sample(recs, 38)  # seed 0 * 1009 + n
        tree = next(r for r in sample if r[1] == 3)
        assert tree[3] is None

        def shift(recs):
            return tuple(r[:3] + (1, r[4] + 1) if r is tree else r for r in recs)

        _tampered_census(monkeypatch, 4, shift)
        ok, detail = _claim_detail("complete-stability", "complete-stability-n4-crosscheck")
        assert not ok
        assert detail == f"mask {tree[0]} alpha 3/4"


def _read_reference(recs, a):
    """``_read_census`` record by record."""
    p, q = a.numerator, a.denominator
    keys = [2 * p * cnt + q * rc for _, cnt, rc, _, _ in recs]
    stable = [
        key
        for key, (_, _, _, lo, hi) in zip(keys, recs)
        if (lo is None or q * lo <= p) and (hi is None or p <= q * hi)
    ]
    return max(keys), len(stable), min(stable, default=None), max(stable, default=None)


def _class_hosts():
    rng = random.Random(5)
    hosts = [clique(4), clique(5), clique(6)]
    while len(hosts) < 15:
        h = random_connected_host(rng.randint(3, 8), rng.uniform(0.1, 0.5), rng)
        if h.m <= 12:
            hosts.append(h)
    return hosts


CLASS_HOSTS = _class_hosts()


class TestCensusClasses:
    @pytest.mark.parametrize(
        "host", CLASS_HOSTS, ids=[f"n{h.n}-m{h.m}-{i}" for i, h in enumerate(CLASS_HOSTS)]
    )
    def test_reader_matches_per_record_reference(self, host):
        recs = host_census(host)
        classes = analysis._classes(recs)
        assert sum(size for size, _, _ in classes.values()) == len(recs)
        n = host.n
        for a in map(Fraction, ("1/4", "1/2", "1", "6/5", "3/2", "2", "5/2", f"{n}/3", "10")):
            got = analysis._read_census(classes, a)
            assert got == _read_reference(recs, a), a

    def test_k6_class_count(self):
        assert len(analysis._classes(analysis._complete_census(6)[1])) == 42

    def test_no_stable_class(self, monkeypatch):
        # one class of one state, stable only from alpha = 2 on
        classes = {(2, 2, None): (1, 8, 8)}
        assert analysis._read_census(classes, Fraction(1)) == (12, 0, None, None)
        monkeypatch.setattr(analysis, "_classes", lambda recs: classes)
        with pytest.raises(NoEquilibriumError):
            poa_exact(path(3), 1, 1 << 8)
        with pytest.raises(NoEquilibriumError):
            pos_exact(path(3), 1, 1 << 8)


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
            a = Fraction(h.n * (h.n - 1) * (h.n - 2), 6) + 1
            assert poa_exact(h, a, 1 << 16) == 1
            assert pos_exact(h, a, 1 << 16) == 1


class TestThresholds:
    def test_values(self):
        t = threshold_table(10)
        assert t.host_optimal == 120
        assert t.host_unique == 29
        assert threshold_table(3).clique_optimal == 1

    def test_host_unique_is_tight_on_small_hosts(self):
        # over every connected host with 3 to 6 nodes, no finite lo or hi
        # exceeds B(n) = (n^2 - 5n + 8)/2, and some state other than the host
        # reaches it: 1, 2, 4 and 7
        nx = pytest.importorskip("networkx")
        largest = Counter()
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if not 3 <= n <= 6 or not nx.is_connected(g):
                continue
            host = HostGraph(n, g.edges())
            bound = threshold_table(n).host_unique
            full = (1 << host.m) - 1
            for mask, _, _, lo, hi in host_census(host):
                assert lo is None or lo <= bound
                assert hi is None or hi <= bound
                if mask != full and hi is not None:
                    largest[n] = max(largest[n], hi)
        assert dict(largest) == {n: threshold_table(n).host_unique for n in (3, 4, 5, 6)}
        assert dict(largest) == {3: 1, 4: 2, 5: 4, 6: 7}

    def test_host_optimal_bounds_the_exact_threshold(self):
        # over every connected host with 3 to 6 nodes, the largest alpha at
        # which a state other than the host reaches the host's welfare is
        # 1, 2, 5 and 9, at most C(n, 3) and equal to it at n = 3
        nx = pytest.importorskip("networkx")
        largest = Counter()
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if not 3 <= n <= 6 or not nx.is_connected(g):
                continue
            host = HostGraph(n, g.edges())
            records = host_census(host)
            full = (1 << host.m) - 1
            [rc_host] = [rc for mask, _, rc, _, _ in records if mask == full]
            for mask, size, rc, _, _ in records:
                if mask != full:
                    largest[n] = max(largest[n], Fraction(rc - rc_host, 2 * (host.m - size)))
        assert dict(largest) == {3: 1, 4: 2, 5: 5, 6: 9}
        for n, value in largest.items():
            assert value <= threshold_table(n).host_optimal
        assert threshold_table(3).host_optimal == 1

    def test_host_optimal_above_host_unique(self):
        # so above host_optimal only the host is stable, and PoA = 1 is a theorem
        assert threshold_table(3).host_optimal == threshold_table(3).host_unique
        for n in range(4, 200):
            t = threshold_table(n)
            assert t.host_unique < t.host_optimal == Fraction(n * (n - 1) * (n - 2), 6)

    def test_poa_pos_suite_at_seed_18(self):
        # the old threshold (n-2)n(n+2)/24 gave PoA = 1126/1111 on an n = 7 host here
        assert theorem_campaign("poa-pos", seed=18)["passed"]

    def test_ordering_from_n6(self):
        for n in range(6, 40):
            t = threshold_table(n)
            assert t.host_unique < t.host_optimal
            assert t.clique_optimal > 0 and t.path_stable_limit > 0


class TestImprovingCycle:
    @staticmethod
    def _count_scans(monkeypatch):
        # scans per state mask, through the search's one move scan
        scanned = Counter()
        scan = analysis._improving_arcs

        def counted(state, *args):
            scanned[state.mask] += 1
            return scan(state, *args)

        monkeypatch.setattr(analysis, "_improving_arcs", counted)
        return scanned

    def test_found_at_n5(self):
        out = find_improving_cycle(5, Fraction(5, 2))
        assert out is not None and out.terminal == "cycle"
        assert replay_validates_cycle(out, Fraction(5, 2))

    def test_found_at_n6(self):
        out = find_improving_cycle(6, Fraction(5, 2))
        assert out is not None and out.terminal == "cycle"
        assert replay_validates_cycle(out, Fraction(5, 2))

    def test_not_found_small_budget(self):
        with pytest.raises(BudgetExceededError, match="budget 40"):
            find_improving_cycle(4, Fraction(1, 2), search_budget=40)

    @pytest.mark.parametrize(
        "n, alpha",
        [(4, a) for a in (Fraction(1, 2), 1, 2, Fraction(5, 2), 3)]
        + [(5, a) for a in (2, Fraction(9, 4), Fraction(5, 2), 3)],
        ids=str,
    )
    def test_matches_colour_dfs(self, n, alpha):
        out = find_improving_cycle(n, alpha)
        assert (out is not None) == oracles.has_improving_cycle(n, alpha)
        if out is not None:
            assert replay_validates_cycle(out, alpha)
            assert {h for (h, _), _ in out.trajectory} == {clique(n)}
            assert out.final_state.mask == out.trajectory[out.cycle_start][0][1]

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_none_is_exhaustive(self, monkeypatch, alpha):
        # with budget to spare, None means every connected state was scanned
        scanned = self._count_scans(monkeypatch)
        assert find_improving_cycle(5, alpha) is None
        # K_5 has 728 connected spanning subgraphs
        assert len(scanned) == 728 and set(scanned.values()) == {1}
        # the proof needs every root mask from the star at node 0 looked at
        need = (1 << 10) - 0b1111 + 728
        assert find_improving_cycle(5, alpha, search_budget=need) is None
        with pytest.raises(BudgetExceededError):
            find_improving_cycle(5, alpha, search_budget=need - 1)

    def test_deterministic(self):
        assert find_improving_cycle(5, Fraction(5, 2)) == find_improving_cycle(5, Fraction(5, 2))

    def test_arcs_built_without_apply_move(self, monkeypatch):
        # an arc's next mask toggles the move's edge bit; no state is built for it
        def refuse(*args, **kwargs):
            raise AssertionError("apply_move called while building arcs")

        monkeypatch.setattr(game, "apply_move", refuse)
        out = find_improving_cycle(5, Fraction(5, 2))
        monkeypatch.undo()
        assert out is not None and replay_validates_cycle(out, Fraction(5, 2))

    def test_each_state_scanned_once(self, monkeypatch):
        scanned = self._count_scans(monkeypatch)
        out = find_improving_cycle(5, Fraction(5, 2))
        assert out is not None and out.terminal == "cycle"
        assert set(scanned.values()) == {1}
        # K_5 has 728 connected spanning subgraphs
        assert sum(scanned.values()) <= 728

    def test_budget_counts_roots_and_scans(self, monkeypatch):
        # one unit per root mask looked at, from the star at node 0, and one
        # per state scanned: the found search needs exactly their sum
        scanned = self._count_scans(monkeypatch)
        alpha = Fraction(5, 2)
        out = find_improving_cycle(5, alpha)
        root = out.trajectory[0][0][1]
        need = root - 0b1111 + 1 + sum(scanned.values())
        assert find_improving_cycle(5, alpha, search_budget=need) == out
        with pytest.raises(BudgetExceededError):
            find_improving_cycle(5, alpha, search_budget=need - 1)

    def test_negative_budget_refused(self, monkeypatch):
        def refuse(n):
            raise AssertionError("host built before the budget check")

        monkeypatch.setattr(analysis, "clique", refuse)
        with pytest.raises(ParameterError, match="budget"):
            find_improving_cycle(5, Fraction(5, 2), search_budget=-5)


class TestReplayValidatesCycle:
    """Each refusal of ``replay_validates_cycle``: every test fails if the
    replay drops the comparison it names."""

    alpha = Fraction(5, 2)

    @pytest.fixture
    def out(self):
        out = find_improving_cycle(5, self.alpha)
        # the state test alters step 1, which must be neither the start nor
        # the state the cycle returns to
        assert out.cycle_start > 1
        return out

    def test_accepts_the_search_outcome(self, out):
        assert replay_validates_cycle(out, self.alpha)

    def test_recorded_state_differs(self, out):
        traj = list(out.trajectory)
        (host, mask), mv = traj[1]
        traj[1] = ((host, mask ^ 1), mv)
        assert not replay_validates_cycle(dataclasses.replace(out, trajectory=tuple(traj)), self.alpha)

    def test_move_not_improving(self):
        # at alpha 1/2 adding a chord to a tree of K_4 helps neither endpoint
        # enough, while removing it again helps both: consistent states, and
        # a return to the start, but the first move is not improving
        host = clique(4)
        tree = GameState(host, [(0, 1), (1, 2), (2, 3)])
        chord = GameState(host, [(0, 1), (1, 2), (2, 3), (0, 3)])
        traj = (((host, tree.mask), Move(ADD, 0, 3)), ((host, chord.mask), Move(REMOVE, 0, 3)))
        out = DynamicsOutcome(traj, game.CYCLE, tree, cycle_start=0)
        assert not replay_validates_cycle(out, Fraction(1, 2))

    def test_cycle_start_not_final_state(self, out):
        shifted = dataclasses.replace(out, cycle_start=out.cycle_start + 1)
        assert not replay_validates_cycle(shifted, self.alpha)

    @pytest.mark.parametrize("terminal", ["stable", "budget-exhausted"])
    def test_terminal_not_cycle(self, out, terminal):
        assert not replay_validates_cycle(dataclasses.replace(out, terminal=terminal), self.alpha)

    def test_no_cycle_start(self, out):
        assert not replay_validates_cycle(dataclasses.replace(out, cycle_start=None), self.alpha)

    def test_empty_trajectory(self, out):
        empty = DynamicsOutcome((), game.CYCLE, out.final_state, cycle_start=0)
        assert not replay_validates_cycle(empty, self.alpha)


class TestApproximationReport:
    def test_k4(self):
        (rep,) = approximation_report(clique(4), [1], subset_budget=1 << 8)
        assert rep["ratio_mrcst"] == 1
        assert rep["ratio_mrcst"] <= rep["ratio_bound"] == 3

    def test_tree_host(self):
        for h in (star(5), star(6)):
            (rep,) = approximation_report(h, [1], subset_budget=1 << 6)
            assert rep["ratio_mrcst"] == rep["ratio_smrcst"] == 1
            assert rep["ratio_bound"] == 2

    def test_k6(self):
        (rep,) = approximation_report(clique(6), [1], subset_budget=1 << 16)
        assert rep["ratio_mrcst"] <= rep["ratio_bound"] == Fraction(15, 5) + 1

    def test_alphas_match_separate_ratios(self, k26):
        alphas = (Fraction(1, 2), 3)
        reports = approximation_report(k26, alphas, subset_budget=1 << 12)
        mr = mrcst_exact(k26).tree
        sm = smrcst(k26).tree.tree
        assert [rep["alpha"] for rep in reports] == [Fraction(1, 2), Fraction(3)]
        for a, rep in zip(alphas, reports):
            opt = optimum_exact(k26, a, 1 << 12).welfare
            assert rep["sw_opt"] == opt
            assert rep["ratio_mrcst"] == opt / social_welfare(mr, a)
            assert rep["ratio_smrcst"] == opt / social_welfare(sm, a)
            assert rep["ratio_bound"] == Fraction(12, 7) + 1

    def test_campaign_alphas_reach_ratios_above_one(self):
        # at alpha 1/2 and 1 every ratio is 1, so only the larger alphas
        # give mrcst-approximation-bound something to refute
        reports = [approximation_report(h, analysis._APPROXIMATION_ALPHAS) for h in analysis._optimum_hosts(0)]
        top = [max(reps[i]["ratio_mrcst"] for reps in reports) for i in range(4)]
        assert top == [1, 1, Fraction(32, 25), Fraction(57, 40)]
        assert all(rep["ratio_mrcst"] <= rep["ratio_bound"] for reps in reports for rep in reps)

    def test_unswapped_seed_tree_refused(self, monkeypatch, k26):
        # on K_2,6 the greedy seed's tree still has an improving swap
        seed = greedy_long_path(k26)
        tree = extend_to_spanning_tree(k26, seed)
        assert smrcst(k26).iterations > 0
        unswapped = SmrcstResult(tree, len(seed) - 1, 0, tree.total)
        monkeypatch.setattr(analysis, "smrcst", lambda *a, **k: unswapped)
        with pytest.raises(CertificateError, match="swap-maximality"):
            approximation_report(k26, [1], subset_budget=1 << 12)


class TestSmrcstStability:
    def test_drop_of_exactly_n_third_passes(self, monkeypatch):
        # the smallest drop equals n/3 = 2 under both pivots: alpha = n/3 is
        # the interval's closed end, so both claims hold on this host
        h = HostGraph(6, [(0, 4), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)])
        for pivot in ("best", "first"):
            assert game.stability_interval(smrcst(h, pivot).tree.tree) == (None, 2)
        monkeypatch.setattr(analysis, "_smrcst_hosts", lambda seed: [h])
        report = theorem_campaign("smrcst-stability", seed=0)
        assert [(c["id"], c["pass"]) for c in report["claims"]] == [
            ("smrcst-stable-at-n-third", True),
            ("smrcst-per-edge-distance-drop", True),
        ]


class TestMrcstOptimality:
    def test_small_alpha_mrcst_is_optimal(self):
        rng = random.Random(61)
        for _ in range(4):
            h = random_connected_host(rng.randint(3, 7), rng.uniform(0.2, 0.5), rng)
            mr = mrcst_exact(h)
            for a in (Fraction(1, 2), Fraction(1)):
                assert social_welfare(mr.tree, a) == optimum_exact(h, a, 1 << 22).welfare

    def test_claim_stops_at_its_first_counterexample(self, monkeypatch):
        # hosts 0 and 1 get a star for their MRCST, which a path beats at
        # alpha 1/2; the claim names host 0 and never checks host 2
        hosts = [clique(4), clique(5), clique(6)]

        def star_tree(h):
            if h is hosts[2]:
                raise AssertionError("checked a host after the first counterexample")
            return SimpleNamespace(tree=GameState(h, [(0, v) for v in range(1, h.n)]))

        monkeypatch.setattr(analysis, "_optimum_hosts", lambda seed: hosts)
        monkeypatch.setattr(analysis, "mrcst_exact", star_tree)
        sw = social_welfare(GameState(hosts[0], [(0, 1), (0, 2), (0, 3)]), Fraction(1, 2))
        opt = optimum_exact(hosts[0], Fraction(1, 2)).welfare
        assert sw < opt
        ok, detail = _claim_detail("mrcst-optimality", "mrcst-socially-optimal")
        assert not ok
        assert detail == f"n=4 m=6 alpha=1/2: SW(MRCST)={sw} != SW(OPT)={opt}"


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

    def test_trees_fit_the_tightest_cap(self):
        hosts = host_corpus(5, (4, 5), (0.1, 0.45), seed=0, max_edges=3)
        assert [(h.n, h.m) for h in hosts] == [(4, 3)] * 5

    @pytest.mark.parametrize(
        "n_range, max_edges",
        [((4, 7), 2), ((6, 4), None), ((6, 4), 13)],
        ids=["no-host-fits-the-cap", "empty-range", "empty-range-capped"],
    )
    def test_impossible_corpus_refused_before_drawing(self, monkeypatch, n_range, max_edges):
        def refuse(*args, **kwargs):
            raise AssertionError("a host was drawn")

        monkeypatch.setattr(analysis, "random_connected_host", refuse)
        with pytest.raises(ParameterError):
            host_corpus(3, n_range, (0.1, 0.45), seed=1, max_edges=max_edges)


    @pytest.mark.parametrize("seed", range(20))
    def test_same_corpus_as_drawing_every_host(self, seed):
        # hosts whose tree is over the cap are skipped without their extra
        # edges being drawn, and the generator lands where the draws would
        rng = random.Random(seed)
        plain = []
        while len(plain) < 3:
            n, p = rng.randint(4, 40), rng.uniform(0.1, 0.45)
            h = random_connected_host(n, p, rng)
            if h.m <= 13:
                plain.append(h)
        assert host_corpus(3, (4, 40), (0.1, 0.45), seed, max_edges=13) == plain

    def test_no_extra_edge_drawn_for_a_tree_over_the_cap(self, monkeypatch):
        # random() is called once per host for p, by uniform(), and once per
        # non-tree pair of each host whose tree fits the cap, and no more
        calls, sizes = [], []

        class Counting(random.Random):
            def random(self):
                calls.append(1)
                return super().random()

            def randint(self, a, b):
                sizes.append(super().randint(a, b))
                return sizes[-1]

            def getrandbits(self, k):
                # defined here so that randrange and shuffle keep drawing
                # bits, as they do in random.Random, and not random()
                return super().getrandbits(k)

        monkeypatch.setattr(analysis.random, "Random", Counting)
        host_corpus(3, (4, 40), (0.1, 0.45), seed=0, max_edges=13)
        assert max(sizes) - 1 > 13
        assert len(calls) == len(sizes) + sum((n - 1) * (n - 2) // 2 for n in sizes if n - 1 <= 13)


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
        rep = theorem_campaign("closed-forms", seed=0)
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
