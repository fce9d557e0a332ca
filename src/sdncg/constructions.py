"""Deterministic generators for the named graph families, plus closed-form
social welfare values for the families that admit one.

Labeling contract: block constructions hand out contiguous label ranges in
construction order, so callers can address distinguished nodes (connector
pairs, center cliques) by arithmetic on the documented layout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParameterError, StructureError
from .game import as_alpha
from .graphs import GameState, HostGraph, _check_cap


def _check_size(family: str, n: int, m: int) -> None:
    """Refuse a host above ``HostGraph``'s cap (``graphs._check_cap``) from
    its closed-form node and edge counts, before any list is built."""
    try:
        _check_cap(n, m)
    except StructureError as exc:
        raise ParameterError(f"{family}: {exc}") from None


def path(n: int) -> HostGraph:
    """P_n: nodes 0..n-1 in a line."""
    if n < 2:
        raise ParameterError(f"path needs n >= 2, got {n}")
    _check_size("path", n, n - 1)
    return HostGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> HostGraph:
    """C_n: nodes 0..n-1 in a ring."""
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    _check_size("cycle", n, n)
    return HostGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def star(n: int) -> HostGraph:
    """S_n: center 0 joined to leaves 1..n-1."""
    if n < 2:
        raise ParameterError(f"star needs n >= 2, got {n}")
    _check_size("star", n, n - 1)
    return HostGraph(n, [(0, i) for i in range(1, n)])


def clique(n: int) -> HostGraph:
    """K_n: all pairs joined."""
    if n < 2:
        raise ParameterError(f"clique needs n >= 2, got {n}")
    _check_size("clique", n, n * (n - 1) // 2)
    return HostGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def hypercube(d: int) -> HostGraph:
    """d-dimensional hypercube; node labels are the d-bit integers, edges at
    Hamming distance 1. d <= 16 is the size cap (``MAX_NODES``)."""
    if d < 1:
        raise ParameterError(f"hypercube needs d >= 1, got {d}")
    if d > 16:
        raise ParameterError(f"hypercube needs d <= 16 (65,536 nodes), got {d}")
    n = 1 << d
    edges = []
    for v in range(n):
        for bit in range(d):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    return HostGraph(n, edges)


def path_clique(n: int, k: int, c=None) -> HostGraph:
    """A path attached to a clique by c >= 2 edges from one path endpoint.

    Layout: path nodes 0..n-k-1 in a line, clique nodes n-k..n-1; the path
    endpoint n-k-1 is joined to the first c clique nodes. k = 0 degenerates
    to the path and k = n to the clique (c is ignored in both cases).
    """
    if n < 2:
        raise ParameterError(f"path_clique needs n >= 2, got {n}")
    if k < 0 or k > n:
        raise ParameterError(f"clique size k must be in 0..{n}, got {k}")
    if k == 0:
        return path(n)
    if k == n:
        return clique(n)
    if c is None or c < 2 or c > k:
        raise ParameterError(
            f"need 2 <= c <= k connecting edges when 0 < k < n, got c={c}, k={k}"
        )
    p = n - k  # path nodes
    _check_size("path_clique", n, p - 1 + k * (k - 1) // 2 + c)
    edges = [(i, i + 1) for i in range(p - 1)]
    edges += [(u, v) for u in range(p, n) for v in range(u + 1, n)]
    edges += [(p - 1, p + j) for j in range(c)]
    return HostGraph(n, edges)


def clique_network(base: HostGraph, sizes) -> HostGraph:
    """Blow each base node into a clique and join adjacent cliques completely.

    ``sizes[i]`` (>= 2) is the clique replacing base node i; clique i owns
    the contiguous label range starting at sum(sizes[:i]).
    """
    sizes = list(sizes)
    if len(sizes) != base.n:
        raise ParameterError(
            f"need one size per base node ({base.n}), got {len(sizes)}"
        )
    for i, s in enumerate(sizes):
        if s < 2:
            raise ParameterError(f"clique sizes must be >= 2, block {i} has {s}")
    _check_size(
        "clique_network",
        sum(sizes),
        sum(s * (s - 1) // 2 for s in sizes) + sum(sizes[i] * sizes[j] for i, j in base.edges),
    )
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    for i, s in enumerate(sizes):
        lo = offsets[i]
        edges += [(lo + a, lo + b) for a in range(s) for b in range(a + 1, s)]
    for i, j in base.edges:
        edges += [
            (u, v)
            for u in range(offsets[i], offsets[i + 1])
            for v in range(offsets[j], offsets[j + 1])
        ]
    return HostGraph(offsets[-1], edges)


def star_of_cliques(n: int, alpha) -> HostGraph:
    """Star-like clique network: d rays, each a clique of size ceil(alpha)
    joined through a 2-clique connector pair to a small center clique.

    With c = ceil(alpha) + 2 there are d = (n-2) // c rays; ray i owns labels
    [i*c, (i+1)*c): first c-2 for its outer clique K_i, then the connector
    pair (v_i, v_i'); the center clique M takes the trailing n - c*d labels.
    Feasible for 1 < alpha <= sqrt(n) with at least one ray.
    """
    a = as_alpha(alpha)
    if a <= 1:
        raise ParameterError(f"star_of_cliques needs alpha > 1, got {a}")
    if a * a > n:
        raise ParameterError(f"star_of_cliques needs alpha <= sqrt(n), got alpha={a}, n={n}")
    c = math.ceil(a) + 2
    d = (n - 2) // c
    if d < 1:
        raise ParameterError(
            f"star_of_cliques needs n - 2 >= ceil(alpha) + 2 = {c}, got n={n}"
        )
    m_size = n - c * d  # always in [2, c+2)
    # per ray: its clique, its pair, clique to pair, pair to center; then the center
    ray = (c - 2) * (c - 3) // 2 + 1 + 2 * (c - 2) + 2 * m_size
    _check_size("star_of_cliques", n, d * ray + m_size * (m_size - 1) // 2)
    # base spider: [K_1, pair_1, ..., K_d, pair_d, M]
    base_edges = []
    center = 2 * d
    for i in range(d):
        base_edges.append((2 * i, 2 * i + 1))
        base_edges.append((2 * i + 1, center))
    base = HostGraph(2 * d + 1, base_edges)
    sizes = []
    for _ in range(d):
        sizes += [c - 2, 2]
    sizes.append(m_size)
    return clique_network(base, sizes)


def hypercube_clique_network(n: int) -> HostGraph:
    """Clique network of the (floor(log2 n) - 1)-cube with near-equal clique
    sizes; any remainder goes to the lowest hypercube labels first."""
    if n < 8:
        raise ParameterError(f"hypercube_clique_network needs n >= 8, got {n}")
    d = n.bit_length() - 2  # floor(log2 n) - 1
    blocks = 1 << d
    q, r = divmod(n, blocks)
    # the cliques, then q^2 per cube edge, q more per edge end below r, and 1
    # more per cube edge with both ends below r: sum of popcount(i), i < r
    below = sum((r >> b + 1 << b) + max(0, (r & (2 << b) - 1) - (1 << b)) for b in range(d))
    cube = d << d - 1
    _check_size(
        "hypercube_clique_network",
        n,
        blocks * (q * (q - 1) // 2) + r * q + q * q * cube + q * d * r + below,
    )
    base = hypercube(d)
    sizes = [q + 1] * r + [q] * (blocks - r)
    return clique_network(base, sizes)


def path_of_cliques(n: int, d: int) -> HostGraph:
    """Path of d cliques with a six-node middle gadget.

    The base is a path of d + 3 blocks: the first d/2 cliques, three
    connector pairs (v_1 v_1'), (v_2 v_2'), (v_3 v_3'), then the remaining
    d/2 cliques. Clique sizes are c or c+1 with c = (n-6) // d, the first
    half summing to ceil((n-6)/2) and the second to floor((n-6)/2); oversized
    cliques sit next to the middle. The connector pair labels start at
    ceil((n-6)/2) and run consecutively v_1, v_1', v_2, v_2', v_3, v_3'.
    """
    if d < 2 or d % 2:
        raise ParameterError(f"d must be an even number >= 2, got {d}")
    if n - 6 < 2 * d:
        raise ParameterError(
            f"path_of_cliques needs n - 6 >= 2d so every clique has >= 2 nodes; "
            f"got n={n}, d={d}"
        )
    inner = n - 6
    c = inner // d
    h = d // 2
    r1 = (inner + 1) // 2 - h * c  # the first half sums to ceil(inner / 2)
    r2 = inner // 2 - h * c
    # the size list as runs (count, size): their cliques, then the products
    # of neighbouring sizes within and between runs
    runs = [(k, s) for k, s in ((h - r1, c), (r1, c + 1), (3, 2), (r2, c + 1), (h - r2, c)) if k]
    m = sum(k * s * (s - 1) // 2 + (k - 1) * s * s for k, s in runs)
    _check_size("path_of_cliques", n, m + sum(s * t for (_, s), (_, t) in zip(runs, runs[1:])))
    return clique_network(path(d + 3), [s for k, s in runs for _ in range(k)])


def path_of_cliques_middle(n: int) -> tuple[int, int, int, int, int, int]:
    """The labels (v_1, v_1', v_2, v_2', v_3, v_3') of the middle gadget."""
    base = (n - 6 + 1) // 2
    return tuple(range(base, base + 6))


def wheel_clique_network(n: int) -> HostGraph:
    """Clique network of the wheel on floor(n/2) nodes, all cliques size 2
    (the hub clique gets a third node when n is odd).

    Base labels: hub 0, rim cycle 1..floor(n/2)-1.
    """
    if n < 8:
        raise ParameterError(f"wheel_clique_network needs n >= 8, got {n}")
    half = n // 2
    hub = 2 + n % 2
    # the cliques, then hub to rim and rim to rim
    _check_size("wheel_clique_network", n, hub * (hub - 1) // 2 + (half - 1) * (1 + 2 * hub + 4))
    base_edges = [(0, i) for i in range(1, half)]
    base_edges += [(i, i + 1) for i in range(1, half - 1)]
    base_edges.append((1, half - 1))
    base = HostGraph(half, base_edges)
    sizes = [hub] + [2] * (half - 1)
    return clique_network(base, sizes)


FAMILIES = ("path", "clique", "cycle_odd", "cycle_even", "star")


def closed_form_sw(family: str, n: int, alpha) -> Fraction:
    """Closed-form social welfare of the named family on n nodes.

    path:        2a(n-1) + (n-1)n(n+1)/3
    clique:      n(n-1)(a+1)
    cycle_odd:   2an + (n-1)n(n+1)/4
    cycle_even:  2an + (n-2)n^2/4 + n^2/2
    star:        2a(n-1) + 2(n-1)^2
    """
    a = as_alpha(alpha)
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if family == "path":
        return 2 * a * (n - 1) + Fraction((n - 1) * n * (n + 1), 3)
    if family == "clique":
        return n * (n - 1) * (a + 1)
    if family == "cycle_odd":
        if n < 3 or n % 2 == 0:
            raise ParameterError(f"cycle_odd needs odd n >= 3, got {n}")
        return 2 * a * n + Fraction((n - 1) * n * (n + 1), 4)
    if family == "cycle_even":
        if n < 4 or n % 2:
            raise ParameterError(f"cycle_even needs even n >= 4, got {n}")
        return 2 * a * n + Fraction((n - 2) * n * n, 4) + Fraction(n * n, 2)
    if family == "star":
        return 2 * a * (n - 1) + 2 * (n - 1) ** 2
    raise ParameterError(f"unknown family {family!r}; pick one of {FAMILIES}")


def embed_in_clique(graph: HostGraph) -> GameState:
    """View a generated pattern as a state of the complete host on n nodes."""
    return GameState(clique(graph.n), graph.edges)


_FAMILY_BUILDERS = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "star": (star, ("n",)),
    "clique": (clique, ("n",)),
    "hypercube": (hypercube, ("d",)),
    "path-clique": (path_clique, ("n", "k", "c")),
    "clique-network": (clique_network, ("base", "sizes")),
    "star-of-cliques": (star_of_cliques, ("n", "alpha")),
    "hypercube-clique-network": (hypercube_clique_network, ("n",)),
    "path-of-cliques": (path_of_cliques, ("n", "d")),
    "wheel-clique-network": (wheel_clique_network, ("n",)),
}

CONSTRUCTION_FAMILIES = tuple(_FAMILY_BUILDERS)
