"""Seeded inputs of the benchmark workloads.

The benchmark makes its own random hosts; the program under test only ever
sees the graph files written here. The same seed gives the same files.
"""

from __future__ import annotations

import random
from pathlib import Path

# census: (n, m) of the swept hosts. The m = 13 and m = 14 hosts carry most
# of the sweep's time, and their cost moves little with the seed; the
# m <= 10 hosts are small enough for the brute-force reference.
CENSUS_SHAPES = ((5, 8), (5, 8), (6, 10), (6, 10), (7, 12), (7, 12), (6, 13), (6, 13), (7, 14))
# below 1, between 1 and n/3 (n >= 4), above (n-1)^2/4 (n <= 7)
CENSUS_ALPHAS = ("1/2", "6/5", "10")
CENSUS_SUITES = (
    "complete-optimum",
    "complete-stability",
    "poa-pos",
    "host-uniqueness",
    "mrcst-optimality",
)

# poly: node counts of the SMRCST hosts, each with m = 3n edges. The swap
# count of one host varies several-fold with the seed (3 to 58 at n = 120),
# and the cost of one host with it: across seeds it spreads 11% at n = 50,
# 20% at n = 100 and 17% at n = 200. So a round is many small hosts, whose
# sum holds still, rather than a few large ones.
POLY_SIZES = (40, 50, 60, 70) * 13
POLY_SUITE = "construction-stability"

# cycle: fixed input, the campaign's default search
CYCLE_ARGS = ("--n", "5", "--alpha", "5/2", "--seed", "0")

WORKLOADS = ("census", "poly", "cycle")


def random_host(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Sorted edges of a random spanning tree plus m - n + 1 uniform extra pairs."""
    order = list(range(n))
    rng.shuffle(order)
    chosen = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        chosen.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in chosen]
    chosen.update(rng.sample(rest, m - (n - 1)))
    return sorted(chosen)


def make_hosts(workload: str, seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The ``(n, edges)`` hosts a workload runs on; ``cycle`` has none."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return [(n, random_host(n, m, rng)) for n, m in CENSUS_SHAPES]
    if workload == "poly":
        return [(n, random_host(n, 3 * n, rng)) for n in POLY_SIZES]
    if workload == "cycle":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def write_hosts(hosts, directory: Path) -> list[Path]:
    """Write each host in the program's text format ('n m', then 'u v' lines)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (n, edges) in enumerate(hosts):
        path = directory / f"host{i:02d}.txt"
        lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
