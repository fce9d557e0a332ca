"""The distancing game itself: utilities, welfare, improving moves,
pairwise stability, and improving-move dynamics with cycle detection.

Agents value both their degree (each incident edge is worth ``alpha``) and
their summed hop distances to everyone else; both enter the utility with a
positive sign. ``alpha`` is handled as an exact rational throughout because
the interesting regime boundaries (n/3, (n-1)/2, n/2, ...) are exact ratios
and float ties would silently flip verdicts.

Move legality follows bilateral consent: an edge is removed unilaterally if
that does not disconnect the state and strictly helps at least one endpoint;
an edge is added only when it exists in the host and strictly helps both
endpoints. Each half has one scan here, ``_decreases`` and
``_removal_rises``, and no other module restates either; the lemma behind
the latter also runs on whole state sets in lanes (``_non_unit_lanes``).
The addition scan's packed distance rows take their lanes from
``graphs._lane_width`` and ``graphs._lane_kit``, as every packed lane does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParameterError, StructureError
from .graphs import GameState, _bfs, _lane_kit, _lane_width, edge, is_bridge

ADD = "add"
REMOVE = "remove"

FIRST_IMPROVING = "first"
BEST_IMPROVING = "best"
SEEDED_RANDOM = "random"
POLICIES = (FIRST_IMPROVING, BEST_IMPROVING, SEEDED_RANDOM)

STABLE = "stable"
CYCLE = "cycle"
BUDGET_EXHAUSTED = "budget-exhausted"


def parse_alpha(text: str) -> Fraction:
    """Parse an exact rational from ``"p"`` or ``"p/q"`` text.

    Decimal notation is rejected on purpose: boundary cases like alpha = n/3
    must be decided exactly, and a float detour can corrupt them. So are
    other scripts' digits and ``_``, which ``int()`` would read.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ParameterError(
            f"alpha must be an exact rational like '7/3' or '2', got {text!r}"
        )
    if not s.isascii() or "_" in s:
        raise ParameterError(f"cannot parse alpha {text!r}: digits must be ASCII 0-9, with no '_'")
    try:
        if "/" in s:
            num, den = s.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse alpha {text!r}: {exc}") from None
    if value <= 0:
        raise ParameterError(f"alpha must be positive, got {value}")
    return value


def as_alpha(value) -> Fraction:
    """Coerce an int/Fraction/str to a positive exact rational; floats and
    bools are refused."""
    if isinstance(value, str):
        return parse_alpha(value)
    if isinstance(value, (bool, float)):
        raise ParameterError(f"alpha must be exact (int, Fraction, or 'p/q' string), got {value!r}")
    out = Fraction(value)
    if out <= 0:
        raise ParameterError(f"alpha must be positive, got {out}")
    return out


@dataclass(frozen=True, order=True)
class Move:
    """One bilateral add or unilateral remove; sorts as (kind, u, v)."""

    kind: str
    u: int
    v: int

    def __str__(self):
        return f"{self.kind} {self.u} {self.v}"


@dataclass(frozen=True)
class StabilityReport:
    """A full stability verdict; ``witnesses`` lists every improving move
    and ``moves_examined`` counts every host edge, bridges included."""

    stable: bool
    stable_against_addition: bool
    stable_against_removal: bool
    witnesses: tuple
    moves_examined: int


@dataclass(frozen=True)
class DynamicsOutcome:
    """Trajectory of improving moves plus how it ended.

    ``trajectory`` holds ``((host, mask), move)`` pairs: the labeled key of
    a state and the move taken from it. In a cycle outcome the final state
    equals the state at index ``cycle_start``.
    """

    trajectory: tuple
    terminal: str
    final_state: GameState
    cycle_start: Optional[int] = None

    @property
    def steps(self) -> int:
        return len(self.trajectory)


def utility(state: GameState, v: int, alpha) -> Fraction:
    """u(v) = alpha * degree(v) + summed distances from v. Larger is better."""
    a = as_alpha(alpha)
    if not 0 <= v < state.host.n:
        raise StructureError(f"node {v} out of range")
    return a * state.degree(v) + state.table.per_node_sum[v]


def social_welfare(state: GameState, alpha) -> Fraction:
    """Sum of utilities, which is 2*alpha*|E| + d(V, V)."""
    a = as_alpha(alpha)
    return 2 * a * state.m + state.table.total


_LANE_NODES = 12  # from this many nodes on, additions are scored on packed lanes


def _decreases(table):
    """``addition_decreases`` on one distance table, as a function of (u, v).

    A single added edge is used at most once on any new shortest path, so
    d'(u, x) = min(d(u, x), 1 + d(v, x)), and u's drop is the sum over x of
    d(u, x) - d(v, x) - 1 where that is positive; v's likewise.

    From ``_LANE_NODES`` nodes on, all n terms are taken at once on the rows
    packed as ints (``DistanceTable.lanes``): lane x of d(u) - d(v) + bias,
    with bias 2^(W-1) - 1, is 2^(W-1) + d(u, x) - d(v, x) - 1, which borrows
    from no other lane and has its guard bit 2^(W-1) set exactly where the
    term is at least 0. The guard bits mask the lanes to keep, and the kept
    terms, whose sum is below 2^W - 1 (``_lane_width``), add up as the
    int's remainder mod 2^W - 1. Lane x of 2*bias minus that int is v's
    term plus the bias. Below ``_LANE_NODES`` nodes, where packing the rows
    costs more than it saves, the terms are summed one by one.
    """
    n = len(table.per_node_sum)
    dist = table.dist
    if n < _LANE_NODES:

        def dec(u: int, v: int) -> tuple[int, int]:
            dec_u = 0
            dec_v = 0
            for a, b in zip(dist[u], dist[v]):
                d = a - b
                if d > 1:
                    dec_u += d - 1
                elif d < -1:
                    dec_v += -d - 1
            return dec_u, dec_v

        return dec
    w = _lane_width(n * (n - 1) // 2)
    _, _, ones, guard = _lane_kit(n, w)
    bias = guard - ones
    bias2, top, mod = 2 * bias, w - 1, (1 << w) - 1
    rows = table.lanes

    def dec(u: int, v: int) -> tuple[int, int]:
        t = rows[u] - rows[v] + bias
        g = t & guard
        dec_u = (t & (g - (g >> top))) % mod
        t = bias2 - t
        g = t & guard
        return dec_u, (t & (g - (g >> top))) % mod

    return dec


def addition_decreases(state: GameState, u: int, v: int) -> tuple[int, int]:
    """Exact drop of each endpoint's distance sum if edge (u, v) were added,
    read off the state's distance table (see ``_decreases``). A self-pair
    is refused as ``apply_move`` refuses it."""
    n = state.host.n
    if not (0 <= u < n and 0 <= v < n):
        raise StructureError(f"pair ({u}, {v}) out of range for n={n}")
    if u == v:
        raise StructureError(f"self-loop at node {u}")
    return _decreases(state.table)(u, v)


def removal_increases(state: GameState, u: int, v: int):
    """Exact rise of each endpoint's distance sum if (u, v) were removed.

    Returns ``None`` when the edge is a bridge (removal illegal), and raises
    StructureError when (u, v) is not an active edge.
    """
    n = state.host.n
    nbr = list(state.adjacency_masks)
    if not (0 <= u < n and 0 <= v < n and nbr[u] >> v & 1):
        raise StructureError(f"edge ({u}, {v}) not active")
    nbr[u] ^= 1 << v
    nbr[v] ^= 1 << u
    full = (1 << n) - 1
    sum_u, seen = _bfs(nbr, 1 << u)
    if seen != full:
        return None
    sum_v, _ = _bfs(nbr, 1 << v)
    ps = state.table.per_node_sum
    return sum_u - ps[u], sum_v - ps[v]


def _unit_removals(st: GameState) -> list[int]:
    """Per node u, the mask of u's neighbours v such that removing edge
    (u, v) raises u's distance sum by exactly 1.

    For a non-bridge (u, v), the removal puts v at distance 2 from u iff the
    two share a neighbour, and farther otherwise. Any other node x moves away
    from u iff v is u's sole first hop toward x, that is the one neighbour
    of u at distance d(u, x) - 1 from x: another first hop w keeps its path
    of that length to x, which cannot pass through u. So the rise is
    exactly 1 iff u and v share a neighbour and v is no sole first hop of u.
    A bridge's endpoints share no neighbour, so no bridge is in the masks.
    The rows are the state's distance table.
    """
    n = st.host.n
    nbr = st.adjacency_masks
    dist = st.table.dist
    at = [[0] * n for _ in range(n)]  # at[x][d]: the nodes at distance d from x
    for x, row in enumerate(dist):
        for y, d in enumerate(row):
            at[x][d] |= 1 << y
    unit = []
    for u, row in enumerate(dist):
        sole = two = 0
        for x, d in enumerate(row):
            if d == 1:
                two |= nbr[x]  # a neighbour v shares a neighbour with u iff it is in two
            elif d:
                hops = nbr[u] & at[x][d - 1]
                if not hops & (hops - 1):
                    sole |= hops
        unit.append(nbr[u] & two & ~sole)
    return unit


def _non_unit_lanes(host, masks) -> tuple:
    """The set form of ``_unit_removals``: per connected spanning state of
    ``host`` in ``masks``, 0 if every removal raises both endpoint sums by
    exactly 1, else 1. Each mask is one lane of a packed int (``_lane_kit``),
    so bit i of every lane is the set of states that hold host edge i, and
    one ``&`` or ``|`` acts on every state at once. A state fails if some
    edge's ends share no neighbour, as a bridge's never do, or if the BFS
    from some node x, run level by level on all lanes, reaches a node u at
    distance 2 or more through one neighbour only, u's sole first hop toward
    x. A lane holds a mask of at most 63 edges.
    """
    n = host.n
    w = _lane_width(1 << host.m - 1)  # every mask stays below the lane's guard bit
    pack, unpack, ones, _ = _lane_kit(len(masks), w)
    packed = pack(masks)
    nbr = [{} for _ in range(n)]  # nbr[u][v]: the states that hold edge (u, v)
    for i, (u, v) in enumerate(host.edges):
        nbr[u][v] = nbr[v][u] = packed >> i & ones
    bad = 0
    for u, v in host.edges:
        shared = 0
        for z in nbr[u].keys() & nbr[v].keys():
            shared |= nbr[u][z] & nbr[v][z]
        bad |= nbr[u][v] & ~shared
    for x in range(n):
        front = nbr[x]  # front[z]: the states where z is at the current distance from x
        seen = [front.get(y, 0) for y in range(n)]
        seen[x] = ones
        while front:
            one = [0] * n  # the states where u has a neighbour in front
            many = [0] * n  # ... and where it has two or more
            for z, lanes in front.items():
                for u, has in nbr[z].items():
                    c = lanes & has
                    many[u] |= one[u] & c
                    one[u] |= c
            front = {}
            for u in range(n):
                if new := one[u] & ~seen[u]:
                    seen[u] |= new
                    front[u] = new
                    bad |= new & ~many[u]
    return unpack(bad)


def _removal_rises(state: GameState):
    """Every legal removal of a state as ``(u, v, rise)`` in edge order,
    ``rise`` the larger endpoint increase: the removal improves at alpha iff
    ``rise > alpha``. Bridges are illegal and skipped; a spanning tree
    (n - 1 edges) is all bridges. On a state that lacks some host edge,
    ``_unit_removals`` settles the removals that raise both sums by exactly 1
    with no BFS. A full state skips that O(n^2) pass: on a sparse host few
    of its edges lie on a triangle, so it costs more than the BFS it saves.
    """
    mask, host = state.mask, state.host
    count = mask.bit_count()
    if count < host.n:
        return
    unit = _unit_removals(state) if count < host.m else None
    for i, (u, v) in enumerate(host.edges):
        if not (mask >> i) & 1:
            continue
        if unit is not None and unit[u] >> v & 1 and unit[v] >> u & 1:
            yield u, v, 1
        elif (inc := removal_increases(state, u, v)) is not None:
            yield u, v, inc[0] if inc[0] >= inc[1] else inc[1]


def _non_unit_removals(host, masks):
    """``(mask, u, v, rise)`` for every legal removal of rise other than 1
    in a list of connected spanning states: ``_removal_rises`` chained over
    the masks, less its rises of 1. One lane pass (``_non_unit_lanes``) runs
    at the first item; only the states it fails are scanned, lazily."""
    for mask, failed in zip(masks, _non_unit_lanes(host, masks)):
        if failed:
            for u, v, rise in _removal_rises(GameState._from_mask(host, mask)):
                if rise != 1:
                    yield mask, u, v, rise


def _move_gains(state: GameState):
    """Every legal move of a state with its threshold, in (kind, u, v) order.

    Yields ``(kind, u, v, gain)``. For an addition ``gain`` is the larger of
    the two endpoint decreases: the addition improves at alpha iff
    ``gain < alpha``, since both endpoints must gain strictly. For a removal
    it is the larger of the two endpoint increases (``_removal_rises``): the
    removal improves iff ``gain > alpha``. This is the one move scan; every
    stability query filters it.
    """
    mask, host = state.mask, state.host
    if mask.bit_count() < host.m:
        dec = _decreases(state.table)
        for i, (u, v) in enumerate(host.edges):
            if not (mask >> i) & 1:
                dec_u, dec_v = dec(u, v)
                yield ADD, u, v, dec_u if dec_u >= dec_v else dec_v
    for u, v, rise in _removal_rises(state):
        yield REMOVE, u, v, rise


def _improving_arcs(state: GameState, p: int, q: int, limit: Optional[int] = None) -> tuple:
    """The improving moves at alpha = p/q as ``(move, next mask)`` arcs, in
    ``improving_moves`` order. The scan yields only host edges and
    non-bridge removals, so each move toggles exactly its own edge bit."""
    index = state.host.edge_index
    mask = state.mask
    out = []
    for kind, u, v, gain in _move_gains(state):
        if (q * gain < p) if kind == ADD else (q * gain > p):
            out.append((Move(kind, u, v), mask ^ 1 << index[u, v]))
            if limit is not None and len(out) >= limit:
                break
    return tuple(out)


def improving_moves(state: GameState, alpha) -> list:
    """All improving moves in deterministic lexicographic (kind, u, v) order.

    Additions need a strict gain for both endpoints, removals for at least
    one. With alpha = p/q every test is on integers.
    """
    a = as_alpha(alpha)
    return [mv for mv, _ in _improving_arcs(state, a.numerator, a.denominator)]


def is_pairwise_stable(state: GameState, alpha) -> StabilityReport:
    """Full stability verdict: every host addition and every removal is
    examined, and every improving move is reported as a witness."""
    witnesses = tuple(improving_moves(state, alpha))
    return StabilityReport(
        stable=not witnesses,
        stable_against_addition=all(mv.kind != ADD for mv in witnesses),
        stable_against_removal=all(mv.kind != REMOVE for mv in witnesses),
        witnesses=witnesses,
        moves_examined=state.host.m,
    )


def stability_interval(state: GameState) -> tuple[Optional[int], Optional[int]]:
    """Exact closed alpha-interval [lo, hi] on which the state is stable.

    ``lo`` is the largest distance increase any legal removal can hand an
    endpoint (None when nothing is removable); ``hi`` is the smallest
    blocking decrease over all host additions, i.e. min over addable edges of
    max(dec_u, dec_v) (None when nothing is addable). The state is pairwise
    stable at alpha iff lo <= alpha <= hi with None meaning unbounded. Both
    bounds are integers, so one pass answers stability for every alpha.
    ``analysis.host_census`` reads the same bounds off neighbouring states
    without a scan; this function is its per-state oracle.
    """
    lo = hi = None
    for kind, _, _, gain in _move_gains(state):
        if kind == ADD:
            if hi is None or gain < hi:
                hi = gain
        elif lo is None or gain > lo:
            lo = gain
    return lo, hi


def _in_interval(lo, hi, p: int, q: int) -> bool:
    """alpha = p/q (q > 0) lies in [lo, hi], None unbounded; integers only."""
    return (lo is None or p >= q * lo) and (hi is None or p <= q * hi)


def stable_in_interval(interval, alpha) -> bool:
    lo, hi = interval
    a = as_alpha(alpha)
    return _in_interval(lo, hi, a.numerator, a.denominator)


def apply_move(state: GameState, move: Move) -> GameState:
    """New state with the move applied; raises on any illegal move."""
    e = edge(move.u, move.v)
    host = state.host
    i = host.edge_index.get(e)
    active = i is not None and (state.mask >> i) & 1
    if move.kind == ADD:
        if i is None:
            raise StructureError(f"cannot add {e}: not a host edge")
        if active:
            raise StructureError(f"cannot add {e}: already active")
        return GameState._from_mask(host, state.mask | 1 << i)
    if move.kind == REMOVE:
        if not active:
            raise StructureError(f"cannot remove {e}: not active")
        if is_bridge(state, e):
            raise StructureError(f"cannot remove {e}: removal disconnects the state")
        return GameState._from_mask(host, state.mask ^ 1 << i)
    raise StructureError(f"unknown move kind {move.kind!r}")


def _best_arc(host, alpha: Fraction, arcs):
    # welfare-greedy pivot; ties fall back to lexicographic move order
    best = None
    best_w = None
    for mv, nxt in arcs:
        w = social_welfare(GameState._from_mask(host, nxt), alpha)
        if best_w is None or w > best_w or (w == best_w and mv < best[0]):
            best = (mv, nxt)
            best_w = w
    return best


DYNAMICS_BUDGET = 10_000


def run_dynamics(
    start: GameState,
    alpha,
    policy: str = FIRST_IMPROVING,
    budget: int = DYNAMICS_BUDGET,
    seed: Optional[int] = None,
) -> DynamicsOutcome:
    """Iterate policy-selected improving moves until stable, revisit, or budget.

    Revisits are detected on labeled edge masks, so a cycle outcome means
    an exact state recurrence. Deterministic given (start, alpha, policy, seed).

    The walk runs on edge masks and scans each state it stands on once: it
    stops at its first revisit, so nothing is kept between steps. A move's
    next state toggles the move's edge bit; no move is applied.
    """
    a = as_alpha(alpha)
    if policy not in POLICIES:
        raise ParameterError(f"unknown policy {policy!r}; pick one of {POLICIES}")
    if policy == SEEDED_RANDOM:
        if seed is None:
            raise ParameterError("the seeded-random policy requires a seed")
        rng = random.Random(seed)
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget}")
    host = start.host
    p, q = a.numerator, a.denominator
    limit = 1 if policy == FIRST_IMPROVING else None
    st = start
    seen = {st.mask: 0}
    trajectory = []
    for _ in range(budget):
        arcs = _improving_arcs(st, p, q, limit)
        if not arcs:
            return DynamicsOutcome(tuple(trajectory), STABLE, st)
        if policy == FIRST_IMPROVING:
            mv, nxt = arcs[0]
        elif policy == SEEDED_RANDOM:
            mv, nxt = rng.choice(arcs)
        else:
            mv, nxt = _best_arc(host, a, arcs)
        trajectory.append(((host, st.mask), mv))
        st = GameState._from_mask(host, nxt)
        if nxt in seen:
            return DynamicsOutcome(tuple(trajectory), CYCLE, st, cycle_start=seen[nxt])
        seen[nxt] = len(trajectory)
    # one last look: the budget may have run out exactly at a stable state
    terminal = BUDGET_EXHAUSTED if _improving_arcs(st, p, q, 1) else STABLE
    return DynamicsOutcome(tuple(trajectory), terminal, st)
