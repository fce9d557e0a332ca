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
endpoints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ParameterError, StructureError
from .graphs import GameState, _bfs, edge, is_bridge

Alpha = Fraction

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
    must be decided exactly, and a float detour can corrupt them.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ParameterError(
            f"alpha must be an exact rational like '7/3' or '2', got {text!r}"
        )
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
    """Coerce an int/Fraction/str to a positive exact rational; floats are refused."""
    if isinstance(value, str):
        return parse_alpha(value)
    if isinstance(value, float):
        raise ParameterError("alpha must be exact (int, Fraction, or 'p/q' string)")
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

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    def __str__(self):
        return f"{self.kind} {self.u} {self.v}"


def add_move(u: int, v: int) -> Move:
    a, b = edge(u, v)
    return Move(ADD, a, b)


def remove_move(u: int, v: int) -> Move:
    a, b = edge(u, v)
    return Move(REMOVE, a, b)


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

    ``trajectory`` holds ``(state key, move)`` pairs, the move being the one
    taken from that state. In a cycle outcome the final state equals the
    state at index ``cycle_start``.
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


def addition_decreases(state: GameState, u: int, v: int) -> tuple[int, int]:
    """Exact drop of each endpoint's distance sum if edge (u, v) were added.

    Uses d'(u, x) = min(d(u, x), 1 + d(v, x)); a single added edge is used at
    most once on any new shortest path.
    """
    dist = state.table.dist
    du = dist[u]
    dv = dist[v]
    dec_u = 0
    dec_v = 0
    for a, b in zip(du, dv):
        d = a - b
        if d > 1:
            dec_u += d - 1
        elif d < -1:
            dec_v += -d - 1
    return dec_u, dec_v


def removal_increases(state: GameState, u: int, v: int):
    """Exact rise of each endpoint's distance sum if (u, v) were removed.

    Returns ``None`` when the edge is a bridge (removal illegal).
    """
    n = state.host.n
    nbr = list(state.adjacency_masks)
    nbr[u] ^= 1 << v
    nbr[v] ^= 1 << u
    full = (1 << n) - 1
    sum_u, seen = _bfs(nbr, 1 << u)
    if seen != full:
        return None
    sum_v, _ = _bfs(nbr, 1 << v)
    ps = state.table.per_node_sum
    return sum_u - ps[u], sum_v - ps[v]


def _move_gains(state: GameState):
    """Every legal move of a state with its threshold, in (kind, u, v) order.

    Yields ``(kind, u, v, gain)``. For an addition ``gain`` is the larger of
    the two endpoint decreases: the addition improves at alpha iff
    ``gain < alpha``, since both endpoints must gain strictly. For a removal
    it is the larger of the two endpoint increases: the removal improves iff
    ``gain > alpha``. Bridges are skipped, since removing one is illegal.
    This is the one move scan; every stability query filters it.
    """
    mask = state.mask
    edges = state.host.edges
    for i, (u, v) in enumerate(edges):
        if not (mask >> i) & 1:
            dec_u, dec_v = addition_decreases(state, u, v)
            yield ADD, u, v, dec_u if dec_u >= dec_v else dec_v
    for i, (u, v) in enumerate(edges):
        if (mask >> i) & 1:
            inc = removal_increases(state, u, v)
            if inc is not None:
                yield REMOVE, u, v, inc[0] if inc[0] >= inc[1] else inc[1]


def improving_moves(state: GameState, alpha, limit: Optional[int] = None) -> list:
    """All improving moves in deterministic lexicographic (kind, u, v) order.

    Additions need a strict gain for both endpoints, removals for at least
    one; ``limit`` truncates the list without changing the order. With
    alpha = p/q every test is on integers.
    """
    a = as_alpha(alpha)
    p, q = a.numerator, a.denominator
    out = []
    for kind, u, v, gain in _move_gains(state):
        if (q * gain < p) if kind == ADD else (q * gain > p):
            out.append(Move(kind, u, v))
            if limit is not None and len(out) >= limit:
                return out
    return out


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


def run_dynamics(
    start: GameState,
    alpha,
    policy: str = FIRST_IMPROVING,
    budget: int = 10_000,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    _arcs: Optional[dict] = None,
) -> DynamicsOutcome:
    """Iterate policy-selected improving moves until stable, revisit, or budget.

    Revisits are detected on labeled canonical keys, so a cycle outcome means
    an exact state recurrence. Deterministic given (start, alpha, policy,
    seed); ``rng`` may be passed instead of ``seed`` to share a generator.

    The walk runs on edge masks. Each state's improving arcs, ``(move, next
    mask)`` in ``improving_moves`` order, are scanned once and kept in
    ``_arcs``. That private memo lets repeated walks on one host share
    their scans; every walk that shares it must use the same alpha and
    policy.
    """
    a = as_alpha(alpha)
    if policy not in POLICIES:
        raise ParameterError(f"unknown policy {policy!r}; pick one of {POLICIES}")
    if policy == SEEDED_RANDOM and rng is None:
        if seed is None:
            raise ParameterError("the seeded-random policy requires a seed")
        rng = random.Random(seed)
    if budget < 0:
        raise ParameterError("budget must be nonnegative")
    host = start.host
    index = host.edge_index
    limit = 1 if policy == FIRST_IMPROVING else None
    memo = {} if _arcs is None else _arcs

    def state_of(mask):
        return start if mask == start.mask else GameState._from_mask(host, mask)

    def arcs_of(mask):
        arcs = memo.get(mask)
        if arcs is None:
            st = state_of(mask)
            # improving_moves yields only host edges and non-bridge removals,
            # so each move toggles exactly its own edge bit
            arcs = memo[mask] = tuple(
                (mv, mask ^ (1 << index[(mv.u, mv.v)]))
                for mv in improving_moves(st, a, limit=limit)
            )
        return arcs

    mask = start.mask
    seen = {mask: 0}
    trajectory = []
    for _ in range(budget):
        arcs = arcs_of(mask)
        if not arcs:
            return DynamicsOutcome(tuple(trajectory), STABLE, state_of(mask))
        if policy == FIRST_IMPROVING:
            mv, nxt = arcs[0]
        elif policy == SEEDED_RANDOM:
            mv, nxt = rng.choice(arcs)
        else:
            mv, nxt = _best_arc(host, a, arcs)
        # (host, mask) is the state's canonical key
        trajectory.append(((host, mask), mv))
        if nxt in seen:
            return DynamicsOutcome(tuple(trajectory), CYCLE, state_of(nxt), cycle_start=seen[nxt])
        seen[nxt] = len(trajectory)
        mask = nxt
    # one last look: the budget may have run out exactly at a stable state
    if not arcs_of(mask):
        return DynamicsOutcome(tuple(trajectory), STABLE, state_of(mask))
    return DynamicsOutcome(tuple(trajectory), BUDGET_EXHAUSTED, state_of(mask))
