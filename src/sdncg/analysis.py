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
PoS at every alpha are read off the same records. The readers of welfare
extremes and stable counts (``sweep_host``, ``sweep_cell``, PoA and PoS, the
poa-pos suite) group the records once into classes by ``(|E|, lo, hi)``
(``_classes``), whose members every alpha treats alike, and read each alpha
off the classes: K_6 has 42 of them for 26,704 records.

The census is built in two passes over the lattice of edge subsets. Pass 1
(``_census_sums``) holds distances bit-sliced across subsets (Biham, FSE
1997), in blocks: a block holds one int per node pair, that pair's distance
in 2^k lanes of W bits, k = min(m, 8), lane t being the completion whose
low edges (indices 0 to k - 1) are the bits of t; an unreachable pair holds
the sentinel n. ``_insert`` adds edge (u, v) to every lane of a matrix at
once (Ausiello et al., J. Algorithms 1991): D[x][y] becomes the least of
D[x][y], D[x][u] + 1 + D[v][y] and D[x][v] + 1 + D[u][y], and each lane-wise
minimum subtracts one operand from the other with every guard bit, the top
bit of each lane, set and keeps the lanes whose guard bit survives
(Lamport, CACM 1975). The root block, the 2^k completions of the empty
prefix, is built once by doubling: low edge j doubles a matrix of 2^j
lanes, and the upper 2^j lanes, the completions that hold edge j, are the
lower ones with edge j inserted. A depth-first walk then decides the high
edges, indices m - 1 down to k, each left out before put in, so the
prefixes (the masks of the high edges) come in ascending order; an edge put
in is inserted into all 2^k lanes of its parent's block. Branches that
cannot reach n - 1 edges or that isolate a node are skipped. At a leaf, a
lane is connected iff no D[0][y] holds n, and a node's sum adds its n - 1
pair ints and is zeroed in the other lanes. W is ``graphs._lane_width``
of n(n - 1)/2, the least of 8, 16, 32 and 64 bits with n(n - 1)/2 below
2^(W-1) - 1, the width rule of every packed lane, and the lane constants
come from ``graphs._lane_kit``. That gives the two lane bounds:

- every candidate D[x][u] + 1 + D[v][y], at most 2n + 1, and every sum or
  rise of a connected lane, at most n(n - 1)/2, stays below the guard bit,
  so no subtraction borrows across lanes and one value, n(n - 1)/2 + 1, is
  left to mean "no bound";
- every node sum, at most n(n - 1) in a lane that is not connected, stays
  below 2^W, so no addition carries into the next lane.

So lanes are bytes up to n = 16 and 16 bits from n = 17 (n(n - 1)/2 = 136).
k = 8 makes a block int 2^8 byte lanes, 2048 bits: one operation does the
work of 256 subsets for a few times the cost of one on a small int. A
larger k halves the blocks again, but a block holds every completion of its
prefix, connected or not, so the lanes wasted on a sparse lattice double
with each step.

Pass 2 reads each pair (S - e, S) of connected states once, lane-wise: low
edge j pairs lane t with lane t - 2^j of the same block (a shift by 2^j
lanes), high edge j pairs block H with block H - 2^j, lane for lane.
Removing e from S raises each endpoint's sum by what adding e to S - e
lowers it, so one difference bounds S's ``lo`` and S - e's ``hi``:
``_fold`` takes the larger endpoint rise into ``lo(S)`` by lane-wise max
and into ``hi(S - e)`` by lane-wise min. No rise borrows, since no sum falls
and the other lanes hold 0, and a rise is at least 1, so ``lo`` is 0 and
``hi`` n(n - 1)/2 + 1 in a lane no pair reaches. No S - e means e is a
bridge of S. Then the records are decoded block by block, in ascending
mask order, with ``itertools.compress`` over the connected lanes, each
block int unpacked by the kit; ``rc`` adds the n sums in lanes of 2W bits.
No move is scanned and no BFS runs. The blocks are held until the records
are decoded: n + 3 ints of 2^k lanes per surviving prefix (K_6: 128
blocks).

``host_census`` keeps no record between calls: a caller that asks one host
several questions builds its census once and reads it as often as it needs
(``sweep_host``, ``approximation_report``, the campaign suites). The
process-wide stores are the |E| table of each block shape (``_edge_counts``)
and the per-n memo of the complete hosts' censuses (``_complete_census``),
which three suites read and which the CLI runs as separate ``campaign``
calls; K_6's census alone takes 0.015 to 0.03 s to build. The campaigns
restate no move rule: they read moves from ``game``, and the alpha-one claim
reads ``game._non_unit_removals``, which certifies K_n's states in lanes.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
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
    DynamicsOutcome,
    _improving_arcs,
    _in_interval,
    _non_unit_removals,
    apply_move,
    as_alpha,
    improving_moves,
    is_pairwise_stable,
    social_welfare,
    stability_interval,
    stable_in_interval,
)
from .graphs import GameState, HostGraph, _bfs, _lane_kit, _lane_width, _mask_adjacency, edge, full_state
from .spanning import mrcst_exact, smrcst, smrcst_certificates

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
    host_unique: Fraction  # (n^2-5n+8)/2: beyond this only the host is stable
    host_optimal: Fraction  # n(n-1)(n-2)/6: beyond this the host is the only optimum


def threshold_table(n: int) -> ThresholdTable:
    """The thresholds of ``ThresholdTable`` on n nodes.

    ``host_unique`` is B(n) = (n^2 - 5n + 8)/2: for alpha > B(n) the host is
    the only stable state, on every host with n nodes.

    Proof. Let S be a connected spanning state, uv a host edge missing from
    S, and D the degree of u in S, so 1 <= D <= n - 2. The D neighbours of
    u are at distance 1. No BFS level from u up to the farthest node is
    empty, so the i-th nearest of the other n - 1 - D nodes is at distance
    at most i + 1, and d_S(u, V) <= D + (2 + 3 + ... + (n - D)) = D + (n -
    D)(n - D + 1)/2 - 1. In S + uv, u has D + 1 neighbours and every other
    node is at distance 2 or more, so d(u, V) >= 2n - 3 - D. Adding uv
    therefore lowers u's sum by at most f(D) = (n - D)(n - D + 1)/2 + 2D -
    2n + 2. As f(D + 1) - f(D) = D + 2 - n <= 0 for D <= n - 2, f is largest
    at D = 1, where it is B(n). Removing an edge from a state raises each
    endpoint's sum by exactly what adding it back to the smaller state
    lowers it, and a legal removal leaves that state connected, so no
    removal raises a sum by more than B(n) either. So for alpha > B(n)
    every missing host edge is an improving addition and no removal
    improves: only the host is stable.

    The bound is tight for n = 3 to 6: over every connected host with n
    nodes, the largest finite ``hi`` of a state other than the host is 1,
    2, 4 and 7. On 7 nodes it is 10, below B(7) = 11.

    ``host_optimal`` is C(n, 3) = n(n - 1)(n - 2)/6: for alpha > C(n, 3)
    the host is the only optimum, on every host with n nodes.

    Proof. The welfare at alpha is 2*alpha*|E| + rc. Let S be a connected
    spanning state of a host H with m edges, lacking k >= 1 of them. S
    has a spanning tree, whose routing cost is at least rc(S), and the
    path has the largest routing cost of all trees, so rc(S) <= (n^3 -
    n)/3. In H the m adjacent pairs are at distance 1 and every other pair
    at distance 2 or more, so, over ordered pairs, rc(H) >= 2m + 4(n(n -
    1)/2 - m) = 2n(n - 1) - 2m. S reaches H's welfare only if 2*alpha*k <=
    rc(S) - rc(H), and rc(S) - rc(H) >= 0 as S lacks edges, so only if
    alpha <= (rc(S) - rc(H))/2 <= (n^3 - n)/6 - n(n - 1) + m. With m <=
    n(n - 1)/2 the right side is at most C(n, 3). Since C(n, 3) >= B(n)
    for n >= 3, above it the host is also the only stable state, so PoA =
    PoS = 1 there.

    The bound is tight for n = 3: over every connected host with n nodes,
    the largest alpha at which a state other than the host reaches the
    host's welfare is 1, 2, 5 and 9 for n = 3 to 6 (16 on 7 nodes).
    """
    if n < 3:
        raise ParameterError(f"threshold table needs n >= 3, got {n}")
    return ThresholdTable(
        n=n,
        clique_optimal=Fraction(n, 3),
        path_stable_limit=Fraction(n - 1, 2),
        clique_unique=Fraction(n, 2),
        host_unique=Fraction(n * n - 5 * n + 8, 2),
        host_optimal=Fraction(n * (n - 1) * (n - 2), 6),
    )


_BLOCK_EDGES = 8  # k, the low edges whose 2^k completions one block holds


def _block_lanes(n: int, k: int) -> tuple:
    """The constants of a block of 2^k completions on n nodes (see the module
    docstring): the lane width W, the guard shift W - 1, the guard bit of
    every lane, 1 in every lane, and per low edge j the guard bits of the
    lanes whose bit j is set."""
    w = _lane_width(n * (n - 1) // 2)
    _, _, ones, guard = _lane_kit(1 << k, w)
    # lanes 2^j to 2^(j+1) - 1 of every run of 2^(j+1) lanes
    halves = [guard // ((1 << (w << j)) + 1) << (w << j) for j in range(k)]
    return w, w - 1, guard, ones, halves


def _insert(D: list, u: int, v: int, one: int, g1: int, top: int) -> list:
    """The matrix D after adding edge (u, v), lane by lane (see the module
    docstring): D[x][y] = min(D[x][y], D[x][u] + 1 + D[v][y], D[x][v] + 1 +
    D[u][y]). ``one`` holds 1 and ``g1`` the guard bit in every lane of D's
    ints; D is symmetric, so its rows u and v are its columns u and v."""
    cu, cv = D[u], D[v]
    cu1 = [c + one for c in cu]
    cv1 = [c + one for c in cv]
    E = [row.copy() for row in D]
    for x, row in enumerate(E):
        ax, bx = cu1[x], cv1[x]
        for y in range(x + 1, len(E)):
            a = ax + cv[y]
            t = (a | g1) - bx - cu[y]
            g = t & g1  # guard bit set where D[x][u] + D[v][y] >= D[x][v] + D[u][y]
            a -= t & (g - (g >> top))
            dxy = row[y]
            t = (dxy | g1) - a
            g = t & g1  # guard bit set where D[x][y] >= a
            row[y] = E[y][x] = dxy - (t & (g - (g >> top)))
    return E


def _census_sums(host: HostGraph, k: int, block_lanes: tuple) -> dict:
    """Census pass 1: ``{prefix: [connected lanes, per-node sums]}`` for
    every prefix (the mask of edges k to m - 1) with a connected
    completion, in ascending prefix order (see the module docstring). The
    stack is explicit, since a self-recursive closure is a reference cycle
    that would hold the result until the collector runs."""
    n = host.n
    need = n - 1
    w, top, guard, ones, _ = block_lanes
    last = [0] * host.m  # per edge, the nodes whose last-decided edge it is
    for x, nbr in enumerate(host.adj_mask):
        last[host.edge_index[edge(x, (nbr & -nbr).bit_length() - 1)]] |= 1 << x
    # the root block: the 2^k completions of the low edges, lane count doubled per edge
    D = [[n * (x != y) for y in range(n)] for x in range(n)]
    one, g1, s = 1, 1 << top, w
    for u, v in host.edges[:k]:
        E = _insert(D, u, v, one, g1, top)
        D = [[d | e << s for d, e in zip(row, new)] for row, new in zip(D, E)]
        one |= one << s
        g1 |= g1 << s
        s <<= 1
    far = ((1 << top) - n) * ones  # lifts a lane that holds n to its guard bit
    blocks = {}
    stack = [(host.m, 0, 0, D)]  # (undecided edges, mask, nodes it covers, block)
    while stack:
        i, mask, covered, D = stack.pop()
        if i == k:
            cut = 0
            for dy in D[0][1:]:
                cut |= dy + far
            if conn := guard & ~cut:
                full = conn | (conn - (conn >> top))
                blocks[mask] = [conn, [sum(row) & full for row in D]]
            continue
        i -= 1
        u, v = host.edges[i]
        stack.append((i, mask | 1 << i, covered | 1 << u | 1 << v, _insert(D, u, v, ones, guard, top)))
        # leave edge i out only if n - 1 edges stay reachable and no node is isolated
        if mask.bit_count() + i >= need and not last[i] & ~covered:
            stack.append((i, mask, covered, D))
    return blocks


def _fold(lo, hi, before_u, before_v, sums_u, sums_v, valid, guard, top):
    """One lattice pair (S - e, S) per valid lane: the larger endpoint rise
    from S to S - e, folded into lo(S) by lane-wise max and into hi(S - e) by
    lane-wise min. ``valid`` holds the guard bits of the lanes where both
    states are connected; the rises of the other lanes are masked to 0."""
    low = valid - (valid >> top)
    rise_u = ((before_u | guard) - sums_u) & low  # no lane borrows: no sum falls
    rise_v = ((before_v | guard) - sums_v) & low
    t = (rise_u | guard) - rise_v
    g = t & guard
    rise = rise_v + (t & (g - (g >> top)))
    t = (lo | guard) - rise
    g = t & guard
    t2 = (hi | guard) - rise
    g2 = t2 & valid
    return rise + (t & (g - (g >> top))), hi - (t2 & (g2 - (g2 >> top)))


CENSUS_BUDGET = 1 << 22
SWEEP_BUDGET = 1 << 16  # per host, the default of `sdncg sweep`


def _check_subsets(host: HostGraph, budget: int) -> None:
    """Raise BudgetExceededError if the host's 2^m edge subsets exceed the budget."""
    if (1 << host.m) > budget:
        raise BudgetExceededError(f"2^{host.m} subsets exceed budget {budget}")


@cache
def _edge_counts(high: int, k: int) -> tuple:
    """|E| at [c][t] of lane t in a block whose prefix has c edges."""
    return tuple(tuple(c + t.bit_count() for t in range(1 << k)) for c in range(high + 1))


def host_census(host: HostGraph, budget: int = CENSUS_BUDGET) -> tuple:
    """Alpha-free census of a host, in ascending mask order: one record
    ``(mask, |E|, rc, lo, hi)`` per connected spanning edge subset.

    ``rc`` is the routing cost d(V, V) and ``[lo, hi]`` the state's
    ``stability_interval`` (None is unbounded). The welfare at alpha is
    ``2*alpha*|E| + rc``, and the state is pairwise stable at alpha iff
    ``lo <= alpha <= hi``, so one census answers every alpha. The budget
    caps the 2^m subsets and is checked before anything is built; a
    negative budget raises ParameterError.

    Every call builds the census anew; no record is cached. Every
    ``inc``/``dec`` is the difference of two neighbouring states' per-node
    distance sums, read lane by lane from the blocks of pass 1 (see the
    module docstring), which are held until the records are decoded.
    """
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget}")
    _check_subsets(host, budget)
    n, m = host.n, host.m
    k = min(m, _BLOCK_EDGES)
    block_lanes = _block_lanes(n, k)
    w, top, guard, ones, halves = block_lanes
    cap = n * (n - 1) // 2 + 1  # hi of a lane that no addition lowers
    unbounded = cap * ones
    blocks = _census_sums(host, k, block_lanes)
    # pass 2: low edge j pairs lane t with lane t - 2^j of the same block,
    # high edge j block H with block H - 2^j, lane for lane
    low = [(w << j, half, u, v) for j, (half, (u, v)) in enumerate(zip(halves, host.edges))]
    high = [(1 << j, *host.edges[j]) for j in range(k, m)]
    for prefix, block in blocks.items():
        conn, sums = block
        lo, hi = 0, unbounded
        for s, half, u, v in low:
            valid = conn & conn << s & half
            if valid:
                su, sv = sums[u], sums[v]
                lo, hi = _fold(lo, hi << s, su << s, sv << s, su, sv, valid, guard, top)
                hi >>= s
        for bit, u, v in high:
            if prefix & bit and (prev := blocks.get(prefix ^ bit)) is not None:
                valid = conn & prev[0]
                if valid:
                    before = prev[1]
                    lo, prev[3] = _fold(lo, prev[3], before[u], before[v], sums[u], sums[v], valid, guard, top)
        block += lo, hi
    # the records, block by block: lo 0 and hi cap mean none; rc, the sum of
    # n sums, is added in lanes of 2W bits, even and odd lanes apart
    unpack = _lane_kit(1 << k, w)[1]
    _, unpack_pairs, pair_ones, _ = _lane_kit(1 << k - 1, 2 * w)
    evens = pair_ones * ((1 << w) - 1)
    counts = _edge_counts(m - k, k)
    lo_of = [None, *range(1, cap + 1)]
    hi_of = [*range(cap), None]
    rc = [0] * (1 << k)
    recs = []
    for prefix, (conn, sums, lo, hi) in blocks.items():
        rc[::2] = unpack_pairs(sum(x & evens for x in sums))
        rc[1::2] = unpack_pairs(sum(x >> w & evens for x in sums))
        recs += compress(
            zip(
                range(prefix, prefix + (1 << k)),
                counts[prefix.bit_count()],
                rc,
                map(lo_of.__getitem__, unpack(lo)),
                map(hi_of.__getitem__, unpack(hi)),
            ),
            unpack(conn),
        )
    return tuple(recs)


def _optima(recs, a: Fraction):
    """The optimum welfare at alpha and the census records that reach it,
    in mask order."""
    p, q = a.numerator, a.denominator
    keys = [2 * p * cnt + q * rc for _, cnt, rc, _, _ in recs]  # welfare * q, exact
    best = max(keys)
    return Fraction(best, q), [rec for rec, key in zip(recs, keys) if key == best]


def _classes(recs) -> dict:
    """The census records grouped by what a reader at any alpha tells apart:
    ``{(|E|, lo, hi): (size, least rc, largest rc)}``. Records of one class
    are stable at the same alphas, and at each alpha the welfare is
    increasing in rc, so the class's extreme welfares are those of its
    extreme rc (K_6: 42 classes for 26,704 records)."""
    groups = {}
    for _, cnt, rc, lo, hi in recs:
        groups.setdefault((cnt, lo, hi), []).append(rc)
    return {key: (len(rcs), min(rcs), max(rcs)) for key, rcs in groups.items()}


def _read_census(classes, a: Fraction):
    """The census at one alpha = p/q from its ``_classes``, every welfare
    scaled by q so that it is an integer: ``(q * optimum welfare, number of
    stable states, q * worst stable welfare, q * best stable welfare)``, the
    last two None when no state is stable."""
    p, q = a.numerator, a.denominator
    opt = max(2 * p * cnt + q * most for (cnt, _, _), (_, _, most) in classes.items())
    count = 0
    worst = best = None
    for (cnt, lo, hi), (size, least, most) in classes.items():
        if _in_interval(lo, hi, p, q):
            count += size
            low, high = 2 * p * cnt + q * least, 2 * p * cnt + q * most
            if worst is None or low < worst:
                worst = low
            if best is None or high > best:
                best = high
    return opt, count, worst, best


def optimum_exact(host: HostGraph, alpha, budget: int = CENSUS_BUDGET) -> OptimumResult:
    """Exhaustive social optimum over all connected spanning subnetworks."""
    recs = host_census(host, budget)
    welfare, best = _optima(recs, as_alpha(alpha))
    states = tuple(GameState._from_mask(host, rec[0]) for rec in best)
    return OptimumResult(states, welfare, len(recs))


def enumerate_stable_states(host: HostGraph, alpha, budget: int = CENSUS_BUDGET) -> EquilibriumAtlas:
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
    return EquilibriumAtlas(tuple(stable), tuple(welfares), len(recs))


def _price(host: HostGraph, alpha, budget: int, best: bool) -> Fraction:
    a = as_alpha(alpha)
    opt, count, worst, top = _read_census(_classes(host_census(host, budget)), a)
    if not count:
        raise NoEquilibriumError(f"no pairwise stable state on this host at alpha={a}")
    return Fraction(opt, top if best else worst)


def poa_exact(host: HostGraph, alpha, budget: int = CENSUS_BUDGET) -> Fraction:
    """Optimum welfare over the worst stable welfare, exact."""
    return _price(host, alpha, budget, best=False)


def pos_exact(host: HostGraph, alpha, budget: int = CENSUS_BUDGET) -> Fraction:
    """Optimum welfare over the best stable welfare, exact."""
    return _price(host, alpha, budget, best=True)


@dataclass(frozen=True)
class CompleteOptimum:
    kind: str  # "path" | "clique" | "both"
    welfare: Fraction


def optimum_complete_closed_form(n: int, alpha) -> CompleteOptimum:
    """Closed-form optimum classification on the complete host: the path
    below alpha = n/3, the clique above, both exactly at the tie."""
    a = as_alpha(alpha)
    sw_path = closed_form_sw("path", n, a)
    sw_clique = closed_form_sw("clique", n, a)
    if sw_path > sw_clique:
        return CompleteOptimum("path", sw_path)
    if sw_clique > sw_path:
        return CompleteOptimum("clique", sw_clique)
    return CompleteOptimum("both", sw_path)


CYCLE_BUDGET = 10**6


def find_improving_cycle(n: int, alpha, search_budget: int = CYCLE_BUDGET) -> Optional[DynamicsOutcome]:
    """Exhaustive depth-first search of K_n's improving-move graph for a
    trajectory of improving moves that revisits a state.

    Roots are the edge masks in ascending order from the star at node 0,
    the least mask with n - 1 edges; a root already reached, with fewer
    than n - 1 edges or disconnected is skipped. The walk follows the arcs
    of ``_improving_arcs`` in order and scans each state at most once. An
    arc back into the current path closes a cycle: the trajectory runs from
    the root, ``cycle_start`` is the depth of the revisited state and
    ``final_state`` is that state. An arc into a finished state is skipped,
    since no cycle passes through it.

    Each root looked at and each state scanned costs one unit of
    ``search_budget``, checked before the step; a step past the budget
    raises BudgetExceededError. None is returned only when every root has
    been looked at, so it proves that K_n has no improving cycle at this
    alpha. A negative budget raises ParameterError.
    """
    a = as_alpha(alpha)
    if search_budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {search_budget}")
    host = clique(n)
    p, q = a.numerator, a.denominator
    everyone = (1 << n) - 1
    over = f"improving-cycle search on K_{n} at alpha={a} exceeds budget {search_budget}"
    seen = set()
    used = 0
    for root in range((1 << (n - 1)) - 1, 1 << host.m):
        if used >= search_budget:
            raise BudgetExceededError(over)
        used += 1
        if root.bit_count() < n - 1 or root in seen:
            continue
        if _bfs(_mask_adjacency(n, host.edges, root), 1)[1] != everyone:
            continue
        # path[i] is the state at depth i, arcs[i] its unexplored arcs (None
        # until scanned) and moves[i] the move taken out of it
        seen.add(root)
        path, arcs, moves, depth = [root], [None], [], {root: 0}
        while path:
            if arcs[-1] is None:
                if used >= search_budget:
                    raise BudgetExceededError(over)
                used += 1
                arcs[-1] = iter(_improving_arcs(GameState._from_mask(host, path[-1]), p, q))
            for mv, nxt in arcs[-1]:
                if nxt in depth:
                    moves.append(mv)
                    trajectory = tuple(((host, mask), m) for mask, m in zip(path, moves))
                    final = GameState._from_mask(host, nxt)
                    return DynamicsOutcome(trajectory, CYCLE, final, cycle_start=depth[nxt])
                if nxt not in seen:
                    seen.add(nxt)
                    depth[nxt] = len(path)
                    path.append(nxt)
                    arcs.append(None)
                    moves.append(mv)
                    break
            else:
                del depth[path.pop()]
                arcs.pop()
                if moves:
                    moves.pop()
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
        if (st.host, st.mask) != key:
            return False
        if mv not in improving_moves(st, a):
            return False
        st = apply_move(st, mv)
    return (st.host, st.mask) == traj[outcome.cycle_start][0]


def approximation_report(host: HostGraph, alphas, subset_budget: int = CENSUS_BUDGET) -> list[dict]:
    """Exact approximation ratios of the maximization pipeline on one host,
    one report per alpha, in the order of ``alphas``.

    Builds one SMRCST, one exact MRCST (under ``mrcst_exact``'s default
    budget) and one census for all the alphas.
    The SMRCST must pass ``smrcst_certificates`` (seeded distance bound
    9*rc >= n*l^2, swap-maximality), and at every alpha the ratio against
    the exact maximum tree must be at most m/(n-1) + 1; either failure
    raises CertificateError. The measured ratios are exact rationals.
    """
    res = smrcst(host)
    smrcst_certificates(res, host)
    mr = mrcst_exact(host)
    recs = host_census(host, subset_budget)
    bound = Fraction(host.m, host.n - 1) + 1
    reports = []
    for alpha in alphas:
        a = as_alpha(alpha)
        sw_opt = _optima(recs, a)[0]
        sw_mr = social_welfare(mr.tree, a)
        sw_sm = social_welfare(res.tree.tree, a)
        ratio_mr = sw_opt / sw_mr
        if ratio_mr > bound:
            raise CertificateError(
                f"approximation bound violated at alpha={a}: SW(OPT)/SW(MRCST) = "
                f"{ratio_mr} > m/(n-1) + 1 = {bound}"
            )
        reports.append(
            {
                "n": host.n,
                "m": host.m,
                "alpha": a,
                "sw_opt": sw_opt,
                "sw_mrcst": sw_mr,
                "sw_smrcst": sw_sm,
                "ratio_mrcst": ratio_mr,
                "ratio_smrcst": sw_opt / sw_sm,
                "ratio_bound": bound,
                "seed_path_length": res.seed_path_length,
                "iterations": res.iterations,
            }
        )
    return reports


# ---------------------------------------------------------------------------
# random host corpus


def random_connected_host(n: int, p: float, rng: random.Random) -> HostGraph:
    """Random spanning tree unioned with Bernoulli(p) extra edges."""
    chosen = _random_tree(n, rng)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in chosen and rng.random() < p:
                chosen.add((u, v))
    return HostGraph(n, chosen)


def _random_tree(n: int, rng: random.Random) -> set:
    """The spanning tree ``random_connected_host`` draws first, one
    ``rng.randrange`` per node after a shuffle."""
    order = list(range(n))
    rng.shuffle(order)
    return {edge(order[i], order[rng.randrange(i)]) for i in range(1, n)}


# consecutive draws over the edge cap after which host_corpus gives up: a cap
# that only trees meet on many nodes would otherwise resample for ages
_MAX_REJECTS = 1000


def host_corpus(
    count: int,
    n_range: tuple[int, int],
    p_range: tuple[float, float],
    seed: int,
    max_edges: Optional[int] = None,
) -> list[HostGraph]:
    """Deterministic corpus of random connected hosts; hosts denser than
    ``max_edges`` are resampled so downstream exact sweeps stay in budget.
    A corpus that no host can fill raises ParameterError before any is drawn,
    and one whose cap rejects ``_MAX_REJECTS`` draws in a row raises it then."""
    n_min, n_max = n_range
    if n_min > n_max:
        raise ParameterError(f"empty node range: n_min {n_min} > n_max {n_max}")
    if max_edges is not None and max_edges < n_min - 1:
        raise ParameterError(f"no connected host on {n_min}+ nodes has at most {max_edges} edges")
    rng = random.Random(seed)
    out = []
    rejects = 0
    while len(out) < count:
        n = rng.randint(*n_range)
        p = rng.uniform(*p_range)
        if max_edges is not None and n - 1 > max(max_edges, 0):
            # a tree on two or more nodes over the cap: the same draws, the
            # extra-edge ones skipped 4096 at a time, two 32-bit words each
            _random_tree(n, rng)
            for skip in range((n - 1) * (n - 2) // 2, 0, -4096):
                rng.getrandbits(64 * min(skip, 4096))
            h = None
        else:
            h = random_connected_host(n, p, rng)
        if h is None or (max_edges is not None and h.m > max_edges):
            rejects += 1
            if rejects == _MAX_REJECTS:
                raise ParameterError(
                    f"{rejects} hosts in a row had more than {max_edges} edges; "
                    "raise the edge cap or lower the node range"
                )
            continue
        rejects = 0
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


def sweep_cell(host: HostGraph, alpha, budget: int = CENSUS_BUDGET) -> dict:
    """One CSV row: optimum, stable extrema, PoA/PoS for (host, alpha)."""
    return _sweep_row(host, as_alpha(alpha), _classes(host_census(host, budget)))


def sweep_host(host: HostGraph, alphas, budget: int = CENSUS_BUDGET) -> list[dict]:
    """The rows of one host, in the order of ``alphas``, from one census."""
    classes = _classes(host_census(host, budget))
    return [_sweep_row(host, as_alpha(a), classes) for a in alphas]


def _sweep_row(host: HostGraph, a: Fraction, classes: dict) -> dict:
    opt, count, low, high = _read_census(classes, a)
    q = a.denominator
    worst = best = poa = pos = None
    if count:
        worst, best = Fraction(low, q), Fraction(high, q)
        poa, pos = Fraction(opt, low), Fraction(opt, high)
    return {
        "n": host.n,
        "m": host.m,
        "alpha_num": a.numerator,
        "alpha_den": q,
        "sw_opt": format_exact(Fraction(opt, q)),
        "sw_worst_stable": format_exact(worst),
        "sw_best_stable": format_exact(best),
        "poa": format_exact(poa),
        "pos": format_exact(pos),
        "stable_count": count,
        "states_examined": sum(size for size, _, _ in classes.values()),
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


def _first(counterexamples, detail: str) -> tuple[bool, str]:
    """``(False, text)`` for the first text that ``counterexamples`` yields,
    else ``(True, detail)``. Nothing after the first text is computed, so a
    failing claim reports its first counterexample in corpus order and
    stops there; a passing claim runs its generator to the end."""
    for text in counterexamples:
        return False, text
    return True, detail


@cache
def _complete_census(n: int):
    """K_n and its census, memoized per n for the life of the process:
    complete-optimum, complete-stability and poa-pos all read it, and the
    CLI runs them as separate ``campaign`` calls."""
    host = clique(n)
    return host, host_census(host)


def _mask_is_path(host: HostGraph, mask: int, cnt: int) -> bool:
    if cnt != host.n - 1:
        return False
    return all(nbr.bit_count() <= 2 for nbr in _mask_adjacency(host.n, host.edges, mask))


# The campaigns' inputs, fixed here: a suite's only input is its seed, from
# which its random hosts are drawn. The 13-edge cap keeps every census at or
# under 2^13 subsets, well inside the library's default budgets.
_COMPLETE_SIZES = (4, 5, 6)  # complete-optimum, complete-stability, poa-pos
# mrcst-approximation-bound: at alpha <= 1 the optimum is a tree (an added
# edge gains 2*alpha and costs at least 2 in rc), so SW(OPT)/SW(MRCST) is 1
# there; at 5 and 10 it exceeds 1 on some hosts, so the bound is tested
_APPROXIMATION_ALPHAS = (Fraction(1, 2), Fraction(1), Fraction(5), Fraction(10))


def _smrcst_hosts(seed: int) -> list[HostGraph]:
    """The corpus of smrcst-stability and smrcst-certificates."""
    return host_corpus(100, (8, 16), (0.15, 0.55), seed)


def _optimum_hosts(seed: int) -> list[HostGraph]:
    """The corpus of mrcst-optimality and of smrcst-certificates' ratio bound."""
    return host_corpus(50, (4, 8), (0.05, 0.3), seed, max_edges=13)


def _small_hosts(count: int, seed: int) -> list[HostGraph]:
    """One corpus: its first 50 hosts in host-uniqueness, its first 20 in poa-pos."""
    return host_corpus(count, (3, 7), (0.1, 0.45), seed, max_edges=13)


def _suite_closed_forms(seed: int) -> list[dict]:
    def misses(family, gen):
        for n in range(3, 51):
            st = full_state(gen(n))
            key = family if family != "cycle" else ("cycle_odd" if n % 2 else "cycle_even")
            for a in (Fraction(1, 2), Fraction(1), Fraction(n, 3), Fraction(n)):
                want = closed_form_sw(key, n, a)
                got = social_welfare(st, a)
                if got != want:
                    yield f"n={n} alpha={a}: welfare {got} != formula {want}"

    detail = "exact equality for 3 <= n <= 50, alpha in {1/2, 1, n/3, n}"
    return [
        _claim(f"closed-form-{family}", *_first(misses(family, gen), detail))
        for family, gen in (("path", path), ("clique", clique), ("cycle", cycle), ("star", star))
    ]


def _suite_complete_optimum(seed: int) -> list[dict]:
    claims = []
    for n in _COMPLETE_SIZES:
        host, recs = _complete_census(n)
        full_mask = (1 << host.m) - 1
        n_paths = math.factorial(n) // 2
        t = threshold_table(n)
        for da, tag in ((Fraction(-1, 2), "below"), (Fraction(0), "tie"), (Fraction(1, 2), "above")):
            a = t.clique_optimal + da
            welfare, optima = _optima(recs, a)
            best = [(mask, cnt) for mask, cnt, _, _, _ in optima]
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


def _suite_complete_stability(seed: int) -> list[dict]:
    claims = []
    for n in _COMPLETE_SIZES:
        host, recs = _complete_census(n)
        t = threshold_table(n)
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
        # removing a non-bridge edge raises both endpoint sums by at least 1,
        # so a larger rise of 1 means both rise by exactly 1
        non_unit = (
            f"mask {mask}: removal ({u},{v}) raises a sum by {rise}, not 1"
            for mask, u, v, rise in _non_unit_removals(host, sorted(s_one - trees))
        )
        ok, detail = _first(
            non_unit,
            f"alpha=1: trees and clique patterns ({len(s_one) - len(trees)} non-tree states, "
            f"all with unit removal increases)",
        )
        ok = ok and trees <= s_one and full_mask in s_one
        claims.append(_claim(f"complete-stability-n{n}-alpha-one", ok, detail))

        a_path = t.path_stable_limit
        path_mask = 0
        for i in range(n - 1):
            path_mask |= 1 << host.edge_index[(i, i + 1)]
        # the records ascend by mask, and (mask,) sorts just before mask's record
        _, _, _, lo, hi = recs[bisect_left(recs, (path_mask,))]
        ok = stable_in_interval((lo, hi), a_path)
        ok = ok and is_pairwise_stable(GameState._from_mask(host, path_mask), a_path).stable
        claims.append(
            _claim(
                f"complete-stability-n{n}-path",
                ok,
                f"path stable at alpha=(n-1)/2={a_path}",
            )
        )

        a_big = t.clique_unique + Fraction(1, 4)
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
        sample = rng.sample(recs, min(40, len(recs)))
        # one move scan per state answers all four alphas
        scans = (
            (mask, (lo, hi), stability_interval(GameState._from_mask(host, mask)))
            for mask, _, _, lo, hi in sample
        )
        mismatches = (
            f"mask {mask} alpha {a}"
            for mask, census, scanned in scans
            for a in (Fraction(3, 4), a_one, a_path, a_big)
            if stable_in_interval(scanned, a) != stable_in_interval(census, a)
        )
        detail = f"{len(sample)} sampled states agree with the full checker"
        claims.append(_claim(f"complete-stability-n{n}-crosscheck", *_first(mismatches, detail)))
    return claims


def _suite_smrcst_stability(seed: int) -> list[dict]:
    hosts = _smrcst_hosts(seed)
    # one interval per (host, pivot), read by both claims; its hi is the
    # smallest larger-endpoint drop over the non-tree edges
    runs = [
        (h, pivot, third, stability_interval(smrcst(h, pivot).tree.tree))
        for h, third in ((h, threshold_table(h.n).clique_optimal) for h in hosts)
        for pivot in ("best", "first")
    ]
    unstable = (
        f"n={h.n} m={h.m} pivot={pivot}"
        for h, pivot, third, interval in runs
        if not stable_in_interval(interval, third)
    )
    weak_edges = (
        f"n={h.n} pivot={pivot}: a non-tree edge drops both "
        f"endpoint sums by at most {hi}, below n/3"
        for h, pivot, third, (_, hi) in runs
        if hi is not None and hi < third
    )
    return [
        _claim(
            "smrcst-stable-at-n-third",
            *_first(unstable, f"{len(hosts)} hosts, both pivots, stable at alpha=n/3"),
        ),
        _claim(
            "smrcst-per-edge-distance-drop",
            *_first(weak_edges, "every non-tree host edge drops some endpoint sum by >= n/3"),
        ),
    ]


def _suite_mrcst_optimality(seed: int) -> list[dict]:
    hosts = _optimum_hosts(seed)

    def misses():
        for h in hosts:
            mr = mrcst_exact(h)
            recs = host_census(h)
            for a in (Fraction(1, 2), Fraction(1)):
                opt_w = _optima(recs, a)[0]
                sw = social_welfare(mr.tree, a)
                if sw != opt_w:
                    yield f"n={h.n} m={h.m} alpha={a}: SW(MRCST)={sw} != SW(OPT)={opt_w}"

    detail = f"{len(hosts)} hosts, alpha in {{1/2, 1}}: exact welfare equality"
    return [_claim("mrcst-socially-optimal", *_first(misses(), detail))]


def _suite_host_uniqueness(seed: int) -> list[dict]:
    hosts = _small_hosts(50, seed)

    def misses():
        for h in hosts:
            a = threshold_table(h.n).host_unique + 1
            got = sorted(st.mask for st in enumerate_stable_states(h, a).stable_states)
            if got != [(1 << h.m) - 1]:
                yield f"n={h.n} m={h.m} alpha={a}: stable masks {got[:4]}"

    detail = f"{len(hosts)} hosts at alpha=(n^2-5n+8)/2 + 1: stable set is exactly the host"
    return [_claim("host-unique-above-threshold", *_first(misses(), detail))]


def _suite_improving_cycle(seed: int) -> list[dict]:
    alpha = Fraction(5, 2)
    try:
        out = find_improving_cycle(5, alpha)
    except BudgetExceededError as exc:
        return [_claim("improving-cycle-found", False, str(exc))]
    if out is None:
        return [_claim("improving-cycle-found", False, f"no improving cycle on K_5 at alpha={alpha}")]
    ok = replay_validates_cycle(out, alpha)
    length = out.steps - out.cycle_start
    return [
        _claim(
            "improving-cycle-found",
            ok,
            f"cycle of length {length} after {out.steps} improving moves, replay verified",
        )
    ]


def _suite_construction_stability(seed: int) -> list[dict]:
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
    a = Fraction(1)
    # the blocks are numbered hub, rim 1, rim 2, ..., so 0, 1, ..., n-1 is a Hamilton path
    path_state = GameState(wheel, [(v, v + 1) for v in range(wheel.n - 1)])
    ratio = social_welfare(path_state, a) / social_welfare(full_state(wheel), a)
    claims.append(
        _claim(
            "wheel-welfare-gap",
            ratio > 1,
            f"SW(Hamilton path)/SW(host) = {ratio} (~{float(ratio):.3f}) at alpha=1",
        )
    )
    return claims


def _suite_poa_pos(seed: int) -> list[dict]:
    claims = []
    classes = {n: _classes(_complete_census(n)[1]) for n in _COMPLETE_SIZES}
    opt, _, worst, _ = _read_census(classes[6], Fraction(1))
    got = Fraction(opt, worst)
    claims.append(
        _claim("poa-k6-alpha-1", got == Fraction(4, 3), f"PoA(K_6, 1) = {got}, expected 4/3")
    )
    for n in _COMPLETE_SIZES:
        t = threshold_table(n)
        grid = (
            Fraction(1, 2),
            Fraction(1),
            t.clique_optimal,
            t.path_stable_limit,
            t.clique_unique + Fraction(1, 4),
        )
        reads = ((a, *_read_census(classes[n], a)) for a in grid)
        misses = (
            f"n={n} alpha={a}: PoS != 1"
            for a, opt, count, _, best in reads
            if not count or best != opt
        )
        detail = f"PoS(K_{n}) = 1 across alpha grid {[str(a) for a in grid]}"
        claims.append(_claim(f"pos-complete-n{n}", *_first(misses, detail)))
    hosts = _small_hosts(20, seed)

    def poa_misses():
        for h in hosts:
            a = threshold_table(h.n).host_optimal + 1
            val = poa_exact(h, a)
            if val != 1:
                yield f"n={h.n} m={h.m} alpha={a}: PoA = {val}"

    detail = f"{len(hosts)} hosts at alpha = n(n-1)(n-2)/6 + 1: PoA = 1"
    claims.append(_claim("poa-one-above-host-optimal", *_first(poa_misses(), detail)))
    return claims


def _suite_smrcst_certificates(seed: int) -> list[dict]:
    def refusals(cases):
        # each case is (label, check, *args): the label and text of every
        # CertificateError that check(*args) raises
        for label, check, *args in cases:
            try:
                check(*args)
            except CertificateError as exc:
                yield f"{label}: {exc}"

    hosts = _smrcst_hosts(seed)
    corpus = (
        (f"n={h.n} m={h.m} pivot={pivot}", smrcst_certificates, smrcst(h, pivot), h)
        for h in hosts
        for pivot in ("best", "first")
    )
    detail = f"{len(hosts)} hosts, both pivots: iteration bound, 9*rc >= n*l^2, swap-maximal rescan"
    claims = [_claim("smrcst-certificates-corpus", *_first(refusals(corpus), detail))]
    opt_hosts = _optimum_hosts(seed)
    alphas = _APPROXIMATION_ALPHAS
    reports = ((f"n={h.n} m={h.m}", approximation_report, h, alphas) for h in opt_hosts)
    detail = (
        f"{len(opt_hosts)} hosts: SW(OPT)/SW(MRCST) <= m/(n-1) + 1 at alpha in "
        f"{{{', '.join(map(str, alphas))}}}"
    )
    claims.append(_claim("mrcst-approximation-bound", *_first(refusals(reports), detail)))
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


def theorem_campaign(suite: str, seed: int = 0) -> dict:
    """Run one named verification suite; deterministic given the seed.

    The seed is a suite's only input: it draws the suite's random hosts.
    Every corpus, size and alpha is fixed in this module, so
    ``sdncg campaign`` and this call run the same configuration.

    Returns a machine-readable report: per-claim pass/fail with details, and
    counterexample descriptions on failure.
    """
    try:
        fn = _SUITES[suite]
    except KeyError:
        raise ParameterError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(_SUITES))}"
        ) from None
    claims = fn(seed)
    return {
        "suite": suite,
        "seed": seed,
        "passed": all(c["pass"] for c in claims),
        "claims": claims,
    }
