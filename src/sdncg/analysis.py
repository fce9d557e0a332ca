"""Exact optimum and equilibrium-set computation at bounded size, PoA/PoS,
threshold tables, and the verification campaigns.

Enumeration is labeled (no isomorphism reduction): edge-subset bitmasks
ascending, connectivity filtered, exact rational welfare comparisons
throughout. Every randomized piece takes an explicit seed, so campaign
reports are reproducible bit for bit.

Each host is enumerated once, into an alpha-free census (``host_census``):
one record ``(mask, |E|, rc, lo, hi)`` per connected spanning subset. The
welfare at alpha is ``2*alpha*|E| + rc`` and the state is stable exactly on
the integer interval ``[lo, hi]``, so the optimum, the stable set, PoA and
PoS at every alpha are read off the same records.

The census is built in two passes over the lattice of edge subsets. Pass 1
walks the masks in ascending order and keeps the per-node distance sums of
every connected one: one BFS from node 0 decides connectivity, n - 1 more
give the other sums. Pass 2 reads every move of a state from the state it
leads to: removing edge e from S leaves ``S ^ bit(e)``, whose sums minus S's
are the endpoints' increases (no entry means e is a bridge), and adding e
gives ``S | bit(e)``, which is always connected. No move is scanned and no
distance row is built. The sums of every connected state are held until
pass 2 ends, which about doubles the build's transient memory (tracemalloc:
6.4 MiB peak for K_6's 26,704 states, 2.9 MiB retained). The last 8 hosts'
censuses are cached; a retained state costs about 120 bytes, and
``sweep_host`` builds its census outside the cache.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .constructions import clique, closed_form_sw, cycle, hypercube_clique_network, path, path_of_cliques, star, star_of_cliques, wheel_clique_network, embed_in_clique
from .errors import (
    BudgetExceededError,
    CertificateError,
    NoEquilibriumError,
    ParameterError,
)
from .game import (
    CYCLE,
    SEEDED_RANDOM,
    DynamicsOutcome,
    _in_interval,
    apply_move,
    as_alpha,
    improving_moves,
    is_pairwise_stable,
    removal_increases,
    run_dynamics,
    social_welfare,
    stability_interval,
    stable_in_interval,
)
from .graphs import GameState, HostGraph, _bfs, _mask_adjacency, canonical_key, edge, full_state
from .spanning import find_hamilton_path, mrcst_exact, smrcst, smrcst_certificates

SWEEP_COLUMNS = (
    "n",
    "m",
    "alpha_num",
    "alpha_den",
    "sw_opt",
    "sw_worst_stable",
    "sw_best_stable",
    "poa",
    "pos",
    "stable_count",
    "states_examined",
    "poa_approx",
    "pos_approx",
)


@dataclass(frozen=True)
class OptimumResult:
    """All welfare-maximizing states (labeled) of an exhaustive sweep."""

    best_states: tuple
    welfare: Fraction
    states_examined: int


@dataclass(frozen=True)
class EquilibriumAtlas:
    """Every pairwise stable state of a host at one alpha, with welfares.

    An empty atlas is a legitimate outcome and is reported as such; general
    existence is an open matter, never an assumption.
    """

    host: HostGraph
    alpha: Fraction
    stable_states: tuple
    welfares: tuple
    states_examined: int

    @property
    def stable_count(self) -> int:
        return len(self.stable_states)

    @property
    def worst_welfare(self) -> Optional[Fraction]:
        return min(self.welfares) if self.welfares else None

    @property
    def best_welfare(self) -> Optional[Fraction]:
        return max(self.welfares) if self.welfares else None


@dataclass(frozen=True)
class ThresholdTable:
    """The exact alpha thresholds that organize the regime structure."""

    n: int
    clique_optimal: Fraction  # n/3: optimum flips from path to clique
    path_stable_limit: Fraction  # (n-1)/2: path stays stable up to here
    clique_unique: Fraction  # n/2: beyond this only the clique is stable
    host_unique: Fraction  # (n-1)^2/4: beyond this only the host is stable
    host_optimal: Fraction  # (n-2)n(n+2)/24: beyond this the host is optimal


def threshold_table(n: int) -> ThresholdTable:
    if n < 3:
        raise ParameterError(f"threshold table needs n >= 3, got {n}")
    return ThresholdTable(
        n=n,
        clique_optimal=Fraction(n, 3),
        path_stable_limit=Fraction(n - 1, 2),
        clique_unique=Fraction(n, 2),
        host_unique=Fraction((n - 1) ** 2, 4),
        host_optimal=Fraction((n - 2) * n * (n + 2), 24),
    )


def _check_budget(host: HostGraph, budget: int) -> None:
    if (1 << host.m) > budget:
        raise BudgetExceededError(f"2^{host.m} subsets exceed budget {budget}")


def _census_records(host: HostGraph) -> tuple:
    """Build a host's census, uncached; see ``host_census``."""
    n = host.n
    edges = host.edges
    need = n - 1
    full = (1 << n) - 1
    # pass 1: the per-node distance sums of every connected state
    ps = {}
    for mask in range(1 << host.m):
        if mask.bit_count() < need:
            continue
        nbr = _mask_adjacency(n, edges, mask)
        s0, seen = _bfs(nbr, 1)
        if seen != full:
            continue
        ps[mask] = (s0, *[_bfs(nbr, 1 << src)[0] for src in range(1, n)])
    # pass 2: a removal with no entry is a bridge; an addition always has
    # one, since a superset of a connected spanning subset is connected
    bits = [(1 << i, u, v) for i, (u, v) in enumerate(edges)]
    recs = []
    for mask, sums in ps.items():  # insertion order is ascending mask order
        lo = hi = None
        for bit, u, v in bits:
            if mask & bit:
                nxt = ps.get(mask ^ bit)
                if nxt is None:
                    continue
                inc_u = nxt[u] - sums[u]
                inc_v = nxt[v] - sums[v]
                worst = inc_u if inc_u >= inc_v else inc_v
                if lo is None or worst > lo:
                    lo = worst
            else:
                nxt = ps[mask | bit]
                dec_u = sums[u] - nxt[u]
                dec_v = sums[v] - nxt[v]
                block = dec_u if dec_u >= dec_v else dec_v
                if hi is None or block < hi:
                    hi = block
        recs.append((mask, mask.bit_count(), sum(sums), lo, hi))
    return tuple(recs)


@lru_cache(maxsize=8)
def _cached_census(host: HostGraph) -> tuple:
    return _census_records(host)


def host_census(host: HostGraph, budget: int = 1 << 22) -> tuple:
    """Alpha-free census of a host, in ascending mask order: one record
    ``(mask, |E|, rc, lo, hi)`` per connected spanning edge subset.

    ``rc`` is the routing cost d(V, V) and ``[lo, hi]`` the state's
    ``stability_interval`` (None is unbounded). The welfare at alpha is
    ``2*alpha*|E| + rc``, and the state is pairwise stable at alpha iff
    ``lo <= alpha <= hi``, so one census answers every alpha. The budget
    caps the 2^m subsets; it is checked before the cache is consulted.

    Every ``inc``/``dec`` is the difference of two neighbouring states'
    per-node distance sums (see the module docstring), so the build holds
    one tuple of n ints per connected state until it ends: about twice the
    retained memory at its peak.
    """
    _check_budget(host, budget)
    return _cached_census(host)


def _read_census(recs, a: Fraction):
    """The census at one alpha: the optimum welfare and the welfares of
    the stable states, in mask order."""
    p, q = a.numerator, a.denominator
    opt = max(2 * p * cnt + q * rc for _, cnt, rc, _, _ in recs)
    stable = [
        Fraction(2 * p * cnt + q * rc, q)
        for _, cnt, rc, lo, hi in recs
        if _in_interval(lo, hi, p, q)
    ]
    return Fraction(opt, q), stable


def optimum_exact(host: HostGraph, alpha, budget: int = 1 << 22) -> OptimumResult:
    """Exhaustive social optimum over all connected spanning subnetworks."""
    a = as_alpha(alpha)
    recs = host_census(host, budget)
    p, q = a.numerator, a.denominator
    keys = [2 * p * cnt + q * rc for _, cnt, rc, _, _ in recs]  # welfare * q, exact
    best = max(keys)
    states = tuple(
        GameState._from_mask(host, rec[0]) for rec, key in zip(recs, keys) if key == best
    )
    return OptimumResult(states, Fraction(best, q), len(recs))


def enumerate_stable_states(host: HostGraph, alpha, budget: int = 1 << 22) -> EquilibriumAtlas:
    """Exhaustive pairwise-stable set; every survivor re-confirmed by the
    full stability report."""
    a = as_alpha(alpha)
    p, q = a.numerator, a.denominator
    recs = host_census(host, budget)
    stable = []
    welfares = []
    for mask, cnt, rc, lo, hi in recs:
        if not _in_interval(lo, hi, p, q):
            continue
        st = GameState._from_mask(host, mask)
        report = is_pairwise_stable(st, a)
        if not report.stable:
            raise CertificateError(
                f"census interval [{lo}, {hi}] of mask {mask} admits alpha={a}, "
                f"but the full check finds {', '.join(map(str, report.witnesses))}"
            )
        stable.append(st)
        welfares.append(2 * a * cnt + rc)
    return EquilibriumAtlas(host, a, tuple(stable), tuple(welfares), len(recs))


def poa_exact(host: HostGraph, alpha, budget: int = 1 << 22) -> Fraction:
    """Optimum welfare over the worst stable welfare, exact."""
    a = as_alpha(alpha)
    opt, stable = _read_census(host_census(host, budget), a)
    if not stable:
        raise NoEquilibriumError(f"no pairwise stable state on this host at alpha={a}")
    return opt / min(stable)


def pos_exact(host: HostGraph, alpha, budget: int = 1 << 22) -> Fraction:
    """Optimum welfare over the best stable welfare, exact."""
    a = as_alpha(alpha)
    opt, stable = _read_census(host_census(host, budget), a)
    if not stable:
        raise NoEquilibriumError(f"no pairwise stable state on this host at alpha={a}")
    return opt / max(stable)


@dataclass(frozen=True)
class CompleteOptimum:
    kind: str  # "path" | "clique" | "both"
    welfare: Fraction
    path_welfare: Fraction
    clique_welfare: Fraction


def optimum_complete_closed_form(n: int, alpha) -> CompleteOptimum:
    """Closed-form optimum classification on the complete host: the path
    below alpha = n/3, the clique above, both exactly at the tie."""
    a = as_alpha(alpha)
    sw_path = closed_form_sw("path", n, a)
    sw_clique = closed_form_sw("clique", n, a)
    if sw_path > sw_clique:
        return CompleteOptimum("path", sw_path, sw_path, sw_clique)
    if sw_clique > sw_path:
        return CompleteOptimum("clique", sw_clique, sw_path, sw_clique)
    return CompleteOptimum("both", sw_path, sw_path, sw_clique)


def _random_state(host: HostGraph, rng: random.Random) -> GameState:
    # random spanning tree plus a fair coin per remaining host edge
    n = host.n
    order = list(range(n))
    rng.shuffle(order)
    index = host.edge_index
    mask = 0
    for i in range(1, n):
        mask |= 1 << index[edge(order[i], order[rng.randrange(i)])]
    for i in range(host.m):
        if not mask >> i & 1 and rng.random() < 0.5:
            mask |= 1 << i
    # connected by construction: it contains a spanning tree
    return GameState._from_mask(host, mask)


def find_improving_cycle(
    n: int, alpha, search_budget: int = 10**6, seed: int = 0
) -> Optional[DynamicsOutcome]:
    """Seeded random-restart search on the complete host for a trajectory of
    improving moves that revisits a state. Not-found within budget is a
    legitimate result (None).

    Each restart draws a random connected start state and runs seeded-random
    dynamics from it, all on one generator; ``search_budget`` caps the moves
    summed over restarts. The restarts share one memo of the improving-move
    graph, from a state's edge mask to its ``(move, next mask)`` arcs, so each
    distinct state is scanned once per search and later visits read its arcs.
    The arcs keep ``improving_moves`` order, so every draw, and therefore the
    outcome for every seed, is the same as with a fresh scan at every step.
    The memo lives for one call and holds one small entry per distinct state
    scanned: at most the number of connected spanning subgraphs of K_n (728
    on K_5), and at most ``2 * search_budget``, since a walk of s moves scans
    at most s + 1 states and is charged max(1, s).
    """
    a = as_alpha(alpha)
    host = clique(n)
    rng = random.Random(seed)
    arcs = {}
    used = 0
    while used < search_budget:
        start = _random_state(host, rng)
        out = run_dynamics(
            start, a, policy=SEEDED_RANDOM, budget=search_budget - used, rng=rng, _arcs=arcs
        )
        used += max(1, out.steps)
        if out.terminal == CYCLE:
            return out
    return None


def replay_validates_cycle(outcome: DynamicsOutcome, alpha) -> bool:
    """Independently re-run a cycle outcome move by move."""
    a = as_alpha(alpha)
    if outcome.terminal != CYCLE or outcome.cycle_start is None:
        return False
    traj = outcome.trajectory
    if not traj:
        return False
    host, mask0 = traj[0][0]
    st = GameState._from_mask(host, mask0)
    for key, mv in traj:
        if canonical_key(st) != key:
            return False
        if mv not in improving_moves(st, a):
            return False
        st = apply_move(st, mv)
    return canonical_key(st) == traj[outcome.cycle_start][0]


def approximation_report(
    host: HostGraph,
    alpha,
    subset_budget: int = 1 << 22,
    tree_budget: int = 10**6,
    pivot: str = "best",
) -> dict:
    """Exact approximation ratios of the maximization pipeline on one host.

    Asserts the certified inequalities (ratio against the exact maximum
    tree at most m/(n-1) + 1; seeded distance bound 9*rc >= n*l^2) and
    reports the measured ratios as exact rationals.
    """
    a = as_alpha(alpha)
    res = smrcst(host, pivot)
    mr = mrcst_exact(host, tree_budget)
    opt = optimum_exact(host, a, subset_budget)
    sw_mr = social_welfare(mr.tree, a)
    sw_sm = social_welfare(res.tree.tree, a)
    ratio_mr = opt.welfare / sw_mr
    ratio_sm = opt.welfare / sw_sm
    bound = Fraction(host.m, host.n - 1) + 1
    if ratio_mr > bound:
        raise CertificateError(
            f"approximation bound violated: SW(OPT)/SW(MRCST) = {ratio_mr} "
            f"> m/(n-1) + 1 = {bound}"
        )
    l = res.seed_path_length
    if 9 * res.routing_cost < host.n * l * l:
        raise CertificateError(
            f"distance bound violated: 9*routing_cost = {9 * res.routing_cost} "
            f"< n*l^2 = {host.n * l * l}"
        )
    return {
        "n": host.n,
        "m": host.m,
        "alpha": a,
        "sw_opt": opt.welfare,
        "sw_mrcst": sw_mr,
        "sw_smrcst": sw_sm,
        "ratio_mrcst": ratio_mr,
        "ratio_smrcst": ratio_sm,
        "ratio_bound": bound,
        "seed_path_length": l,
        "iterations": res.iterations,
    }


# ---------------------------------------------------------------------------
# random host corpus


def random_connected_host(n: int, p: float, rng: random.Random) -> HostGraph:
    """Random spanning tree unioned with Bernoulli(p) extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    chosen = set()
    for i in range(1, n):
        chosen.add(edge(order[i], order[rng.randrange(i)]))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in chosen and rng.random() < p:
                chosen.add((u, v))
    return HostGraph(n, chosen)


def host_corpus(
    count: int,
    n_range: tuple[int, int],
    p_range: tuple[float, float],
    seed: int,
    max_edges: Optional[int] = None,
) -> list[HostGraph]:
    """Deterministic corpus of random connected hosts; hosts denser than
    ``max_edges`` are resampled so downstream exact sweeps stay in budget."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        p = rng.uniform(*p_range)
        h = random_connected_host(n, p, rng)
        if max_edges is not None and h.m > max_edges:
            continue
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# sweep reports (CSV)


def format_exact(x) -> str:
    """Exact text for an integer or reduced fraction; '' for None."""
    if x is None:
        return ""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _approx(x) -> str:
    return "" if x is None else f"{float(x):.6g}"


def sweep_cell(host: HostGraph, alpha, budget: int = 1 << 22) -> dict:
    """One CSV row: optimum, stable extrema, PoA/PoS for (host, alpha)."""
    return _sweep_row(host, as_alpha(alpha), host_census(host, budget))


def sweep_host(host: HostGraph, alphas, budget: int = 1 << 22) -> list[dict]:
    """The rows of one host, in the order of ``alphas``, from a single
    census built outside the cache, so that a sweep over many hosts holds
    one host's records at a time."""
    _check_budget(host, budget)
    recs = _census_records(host)
    return [_sweep_row(host, as_alpha(a), recs) for a in alphas]


def _sweep_row(host: HostGraph, a: Fraction, recs) -> dict:
    opt, stable = _read_census(recs, a)
    worst = min(stable) if stable else None
    best = max(stable) if stable else None
    poa = opt / worst if worst is not None else None
    pos = opt / best if best is not None else None
    return {
        "n": host.n,
        "m": host.m,
        "alpha_num": a.numerator,
        "alpha_den": a.denominator,
        "sw_opt": format_exact(opt),
        "sw_worst_stable": format_exact(worst),
        "sw_best_stable": format_exact(best),
        "poa": format_exact(poa),
        "pos": format_exact(pos),
        "stable_count": len(stable),
        "states_examined": len(recs),
        "poa_approx": _approx(poa),
        "pos_approx": _approx(pos),
    }


def write_sweep_csv(rows, fh) -> None:
    """Mandatory header row, then one row per (host, alpha) cell."""
    fh.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join(str(row[c]) for c in SWEEP_COLUMNS) + "\n")


# ---------------------------------------------------------------------------
# verification campaigns


def _claim(cid: str, ok: bool, detail: str = "") -> dict:
    return {"id": cid, "pass": bool(ok), "detail": detail}


def _complete_census(n: int):
    host = clique(n)
    return host, host_census(host, 1 << host.m)


def _mask_is_path(host: HostGraph, mask: int, cnt: int) -> bool:
    if cnt != host.n - 1:
        return False
    deg = [0] * host.n
    mm = mask
    while mm:
        low = mm & -mm
        u, v = host.edges[low.bit_length() - 1]
        deg[u] += 1
        deg[v] += 1
        mm ^= low
    return max(deg) <= 2


def _suite_closed_forms(seed: int = 0, n_max: int = 50) -> list[dict]:
    claims = []
    for family, gen in (
        ("path", path),
        ("clique", clique),
        ("cycle", cycle),
        ("star", star),
    ):
        bad = None
        for n in range(3, n_max + 1):
            st = full_state(gen(n))
            key = family if family != "cycle" else ("cycle_odd" if n % 2 else "cycle_even")
            for a in (Fraction(1, 2), Fraction(1), Fraction(n, 3), Fraction(n)):
                want = closed_form_sw(key, n, a)
                got = social_welfare(st, a)
                if got != want:
                    bad = f"n={n} alpha={a}: welfare {got} != formula {want}"
                    break
            if bad:
                break
        claims.append(
            _claim(
                f"closed-form-{family}",
                bad is None,
                bad or f"exact equality for 3 <= n <= {n_max}, alpha in {{1/2, 1, n/3, n}}",
            )
        )
    return claims


def _suite_complete_optimum(seed: int = 0, sizes=(4, 5, 6)) -> list[dict]:
    claims = []
    for n in sizes:
        host, recs = _complete_census(n)
        full_mask = (1 << host.m) - 1
        n_paths = math.factorial(n) // 2
        for da, tag in ((Fraction(-1, 2), "below"), (Fraction(0), "tie"), (Fraction(1, 2), "above")):
            a = Fraction(n, 3) + da
            p, q = a.numerator, a.denominator
            best_key = max(2 * p * cnt + q * rc for _, cnt, rc, _, _ in recs)
            best = [(mask, cnt) for mask, cnt, rc, _, _ in recs if 2 * p * cnt + q * rc == best_key]
            welfare = Fraction(best_key, q)
            expect = optimum_complete_closed_form(n, a)
            ok = welfare == expect.welfare
            detail = f"n={n} alpha={a}: welfare {welfare}"
            if tag == "below":
                ok = ok and expect.kind == "path"
                ok = ok and len(best) == n_paths
                ok = ok and all(_mask_is_path(host, mask, cnt) for mask, cnt in best)
                detail += f", {len(best)} labeled paths"
            elif tag == "above":
                ok = ok and expect.kind == "clique"
                ok = ok and best == [(full_mask, host.m)]
                detail += ", unique clique"
            else:
                ok = ok and expect.kind == "both"
                paths = [mc for mc in best if _mask_is_path(host, *mc)]
                ok = ok and len(best) == n_paths + 1
                ok = ok and len(paths) == n_paths
                ok = ok and (full_mask, host.m) in best
                detail += f", {len(best)} optima (paths + clique)"
            claims.append(_claim(f"complete-optimum-n{n}-{tag}", ok, detail))
    return claims


def _suite_complete_stability(seed: int = 0, sizes=(4, 5, 6), samples: int = 40) -> list[dict]:
    claims = []
    for n in sizes:
        host, recs = _complete_census(n)
        full_mask = (1 << host.m) - 1
        trees = {mask for mask, cnt, _, _, _ in recs if cnt == n - 1}

        def stable_set(a: Fraction) -> set[int]:
            p, q = a.numerator, a.denominator
            return {mask for mask, _, _, lo, hi in recs if _in_interval(lo, hi, p, q)}

        s_quarter = stable_set(Fraction(3, 4))
        ok = s_quarter == trees
        claims.append(
            _claim(
                f"complete-stability-n{n}-only-trees",
                ok,
                f"alpha=3/4: {len(s_quarter)} stable states, {len(trees)} spanning trees",
            )
        )

        a_one = Fraction(1)
        s_one = stable_set(a_one)
        ok = trees <= s_one and full_mask in s_one
        bad = ""
        for mask in sorted(s_one - trees):
            st = GameState._from_mask(host, mask)
            for u, v in st.active:
                inc = removal_increases(st, u, v)
                if inc is not None and inc != (1, 1):
                    ok = False
                    bad = f"mask {mask}: removal ({u},{v}) increases {inc}, not (1,1)"
                    break
            if bad:
                break
        claims.append(
            _claim(
                f"complete-stability-n{n}-alpha-one",
                ok,
                bad
                or f"alpha=1: trees and clique patterns ({len(s_one) - len(trees)} non-tree states, "
                f"all with unit removal increases)",
            )
        )

        a_path = Fraction(n - 1, 2)
        path_mask = 0
        for i in range(n - 1):
            path_mask |= 1 << host.edge_index[(i, i + 1)]
        rec = {mask: (lo, hi) for mask, _, _, lo, hi in recs}
        lo, hi = rec[path_mask]
        ok = stable_in_interval((lo, hi), a_path)
        ok = ok and is_pairwise_stable(GameState._from_mask(host, path_mask), a_path).stable
        claims.append(
            _claim(
                f"complete-stability-n{n}-path",
                ok,
                f"path stable at alpha=(n-1)/2={a_path}",
            )
        )

        a_big = Fraction(n, 2) + Fraction(1, 4)
        s_big = stable_set(a_big)
        claims.append(
            _claim(
                f"complete-stability-n{n}-only-clique",
                s_big == {full_mask},
                f"alpha={a_big}: stable set {sorted(s_big)[:4]}... expected only the clique",
            )
        )

        # independent cross-check of the interval machinery on a sample
        rng = random.Random(seed * 1009 + n)
        sample = rng.sample(recs, min(samples, len(recs)))
        mismatch = ""
        for mask, _, _, lo, hi in sample:
            st = GameState._from_mask(host, mask)
            for a in (Fraction(3, 4), a_one, a_path, a_big):
                if is_pairwise_stable(st, a).stable != stable_in_interval((lo, hi), a):
                    mismatch = f"mask {mask} alpha {a}"
                    break
            if mismatch:
                break
        claims.append(
            _claim(
                f"complete-stability-n{n}-crosscheck",
                not mismatch,
                mismatch or f"{len(sample)} sampled states agree with the full checker",
            )
        )
    return claims


def _suite_smrcst_stability(
    seed: int = 0,
    count: int = 100,
    n_range=(8, 16),
    p_range=(0.15, 0.55),
) -> list[dict]:
    hosts = host_corpus(count, n_range, p_range, seed)
    unstable = ""
    weak_edge = ""
    for h in hosts:
        for pivot in ("best", "first"):
            # hi is the smallest larger-endpoint drop over the non-tree edges
            lo, hi = stability_interval(smrcst(h, pivot).tree.tree)
            if not _in_interval(lo, hi, h.n, 3):
                unstable = unstable or f"n={h.n} m={h.m} pivot={pivot}"
            if hi is not None and 3 * hi < h.n:
                weak_edge = weak_edge or (
                    f"n={h.n} pivot={pivot}: a non-tree edge drops both "
                    f"endpoint sums by at most {hi}, below n/3"
                )
    return [
        _claim(
            "smrcst-stable-at-n-third",
            not unstable,
            unstable or f"{count} hosts, both pivots, stable at alpha=n/3",
        ),
        _claim(
            "smrcst-per-edge-distance-drop",
            not weak_edge,
            weak_edge or "every non-tree host edge drops some endpoint sum by >= n/3",
        ),
    ]


def _suite_mrcst_optimality(
    seed: int = 0,
    count: int = 50,
    n_range=(4, 8),
    p_range=(0.05, 0.3),
    max_edges: int = 13,
    subset_budget: int = 1 << 14,
    tree_budget: int = 10**6,
) -> list[dict]:
    hosts = host_corpus(count, n_range, p_range, seed, max_edges=max_edges)
    bad = ""
    for h in hosts:
        mr = mrcst_exact(h, tree_budget)
        for a in (Fraction(1, 2), Fraction(1)):
            opt_w = optimum_exact(h, a, subset_budget).welfare
            sw = social_welfare(mr.tree, a)
            if sw != opt_w:
                bad = bad or f"n={h.n} m={h.m} alpha={a}: SW(MRCST)={sw} != SW(OPT)={opt_w}"
    return [
        _claim(
            "mrcst-socially-optimal",
            not bad,
            bad or f"{count} hosts, alpha in {{1/2, 1}}: exact welfare equality",
        )
    ]


def _suite_host_uniqueness(
    seed: int = 0,
    count: int = 50,
    n_range=(3, 7),
    p_range=(0.1, 0.45),
    max_edges: int = 13,
    budget: int = 1 << 14,
) -> list[dict]:
    hosts = host_corpus(count, n_range, p_range, seed, max_edges=max_edges)
    bad = ""
    for h in hosts:
        a = Fraction((h.n - 1) ** 2, 4) + 1
        atlas = enumerate_stable_states(h, a, budget)
        want = (1 << h.m) - 1
        got = sorted(st.mask for st in atlas.stable_states)
        if got != [want]:
            bad = bad or f"n={h.n} m={h.m} alpha={a}: stable masks {got[:4]}"
    return [
        _claim(
            "host-unique-above-threshold",
            not bad,
            bad or f"{count} hosts at alpha=(n-1)^2/4 + 1: stable set is exactly the host",
        )
    ]


def _suite_improving_cycle(
    seed: int = 0, n: int = 5, alpha=Fraction(5, 2), budget: int = 10**6
) -> list[dict]:
    out = find_improving_cycle(n, alpha, search_budget=budget, seed=seed)
    if out is None:
        return [_claim("improving-cycle-found", False, f"no cycle within {budget} steps")]
    ok = replay_validates_cycle(out, alpha)
    length = out.steps - out.cycle_start
    return [
        _claim(
            "improving-cycle-found",
            ok,
            f"cycle of length {length} after {out.steps} improving moves, replay verified",
        )
    ]


def _suite_construction_stability(seed: int = 0) -> list[dict]:
    claims = []
    checks = [
        ("star-of-cliques-14", embed_in_clique(star_of_cliques(14, 2)), Fraction(2)),
        (
            "hypercube-clique-network-64",
            embed_in_clique(hypercube_clique_network(64)),
            Fraction(64, 6) - 3,
        ),
        ("path-of-cliques-20-4", embed_in_clique(path_of_cliques(20, 4)), Fraction(8)),
        ("wheel-clique-network-10", full_state(wheel_clique_network(10)), Fraction(1)),
    ]
    for cid, st, a in checks:
        rep = is_pairwise_stable(st, a)
        claims.append(
            _claim(
                f"construction-stable-{cid}",
                rep.stable,
                f"alpha={a}: " + ("stable" if rep.stable else f"witness {rep.witnesses[:1]}"),
            )
        )
    wheel = wheel_clique_network(10)
    ham = find_hamilton_path(wheel)
    if ham is None:
        claims.append(_claim("wheel-welfare-gap", False, "no Hamilton path found"))
        return claims
    a = Fraction(1)
    path_state = GameState(wheel, [edge(x, y) for x, y in zip(ham, ham[1:])])
    ratio = social_welfare(path_state, a) / social_welfare(full_state(wheel), a)
    claims.append(
        _claim(
            "wheel-welfare-gap",
            ratio > 1,
            f"SW(Hamilton path)/SW(host) = {ratio} (~{float(ratio):.3f}) at alpha=1",
        )
    )
    return claims


def _suite_poa_pos(
    seed: int = 0,
    sizes=(4, 5, 6),
    random_count: int = 20,
    n_range=(3, 7),
    p_range=(0.1, 0.45),
    max_edges: int = 13,
    budget: int = 1 << 16,
) -> list[dict]:
    claims = []
    got = poa_exact(clique(6), 1, budget)
    claims.append(
        _claim("poa-k6-alpha-1", got == Fraction(4, 3), f"PoA(K_6, 1) = {got}, expected 4/3")
    )
    for n in sizes:
        host, recs = _complete_census(n)
        grid = (
            Fraction(1, 2),
            Fraction(1),
            Fraction(n, 3),
            Fraction(n - 1, 2),
            Fraction(n, 2) + Fraction(1, 4),
        )
        bad = ""
        for a in grid:
            opt, stable = _read_census(recs, a)
            if not stable or max(stable) != opt:
                bad = bad or f"n={n} alpha={a}: PoS != 1"
        claims.append(
            _claim(
                f"pos-complete-n{n}",
                not bad,
                bad or f"PoS(K_{n}) = 1 across alpha grid {[str(a) for a in grid]}",
            )
        )
    hosts = host_corpus(random_count, n_range, p_range, seed, max_edges=max_edges)
    bad = ""
    for h in hosts:
        a = Fraction((h.n - 2) * h.n * (h.n + 2), 24) + 1
        val = poa_exact(h, a, budget)
        if val != 1:
            bad = bad or f"n={h.n} m={h.m} alpha={a}: PoA = {val}"
    claims.append(
        _claim(
            "poa-one-above-host-optimal",
            not bad,
            bad or f"{random_count} hosts at alpha = (n-2)n(n+2)/24 + 1: PoA = 1",
        )
    )
    return claims


def _suite_smrcst_certificates(
    seed: int = 0,
    count: int = 100,
    n_range=(8, 16),
    p_range=(0.15, 0.55),
    opt_count: int = 50,
    opt_n_range=(4, 8),
    opt_p_range=(0.05, 0.3),
    opt_max_edges: int = 13,
    subset_budget: int = 1 << 14,
    tree_budget: int = 10**6,
) -> list[dict]:
    hosts = host_corpus(count, n_range, p_range, seed)
    bad = ""
    for h in hosts:
        for pivot in ("best", "first"):
            res = smrcst(h, pivot)
            try:
                smrcst_certificates(res, h)
            except CertificateError as exc:
                bad = bad or f"n={h.n} m={h.m} pivot={pivot}: {exc}"
    claims = [
        _claim(
            "smrcst-certificates-corpus",
            not bad,
            bad
            or f"{count} hosts, both pivots: iteration bound, 9*rc >= n*l^2, swap-maximal rescan",
        )
    ]
    opt_hosts = host_corpus(opt_count, opt_n_range, opt_p_range, seed, max_edges=opt_max_edges)
    bad = ""
    for h in opt_hosts:
        for a in (Fraction(1, 2), Fraction(1)):
            try:
                approximation_report(h, a, subset_budget, tree_budget)
            except CertificateError as exc:
                bad = bad or f"n={h.n} m={h.m} alpha={a}: {exc}"
        try:
            smrcst_certificates(smrcst(h), h)
        except CertificateError as exc:
            bad = bad or f"n={h.n} m={h.m}: {exc}"
    claims.append(
        _claim(
            "mrcst-approximation-bound",
            not bad,
            bad or f"{opt_count} hosts: SW(OPT)/SW(MRCST) <= m/(n-1) + 1 at alpha in {{1/2, 1}}",
        )
    )
    return claims


_SUITES = {
    "closed-forms": _suite_closed_forms,
    "complete-optimum": _suite_complete_optimum,
    "complete-stability": _suite_complete_stability,
    "smrcst-stability": _suite_smrcst_stability,
    "mrcst-optimality": _suite_mrcst_optimality,
    "host-uniqueness": _suite_host_uniqueness,
    "improving-cycle": _suite_improving_cycle,
    "construction-stability": _suite_construction_stability,
    "poa-pos": _suite_poa_pos,
    "smrcst-certificates": _suite_smrcst_certificates,
}


def list_suites() -> tuple[str, ...]:
    return tuple(_SUITES)


def theorem_campaign(suite: str, seed: int = 0, **overrides) -> dict:
    """Run one named verification suite; deterministic given the seed.

    Returns a machine-readable report: per-claim pass/fail with details, and
    counterexample descriptions on failure.
    """
    try:
        fn = _SUITES[suite]
    except KeyError:
        raise ParameterError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(_SUITES))}"
        ) from None
    claims = fn(seed=seed, **overrides)
    return {
        "suite": suite,
        "seed": seed,
        "passed": all(c["pass"] for c in claims),
        "claims": claims,
    }
