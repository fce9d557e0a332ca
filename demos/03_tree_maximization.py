"""Maximizing spanning-tree routing cost: local search vs exact enumeration.

The swap loop starts from a greedily found long path and only ever raises
the routing cost; the result is swap-maximal and, for alpha <= n/3, also a
pairwise stable state of the host.
"""

import random
from fractions import Fraction

from sdncg import (
    HostGraph,
    approximation_report,
    is_pairwise_stable,
    mrcst_exact,
    random_connected_host,
    smrcst,
)

host = random_connected_host(10, 0.15, random.Random(4))
print(f"random host: n={host.n}, m={host.m}")

result = smrcst(host)
print(f"seed path length l = {result.seed_path_length}")
print(f"swap iterations    = {result.iterations}")
print(f"routing cost       = {result.routing_cost}")
print(f"certified bound    : 9*rc = {9 * result.routing_cost} >= n*l^2 = "
      f"{host.n * result.seed_path_length ** 2}")

exact = mrcst_exact(host)
print(f"exact maximum      = {exact.total} "
      f"(local search reached {Fraction(result.routing_cost, exact.total)})")

alpha = Fraction(host.n, 3)
print(f"\nswap-maximal tree stable at alpha = n/3 = {alpha}: "
      f"{is_pairwise_stable(result.tree.tree, alpha).stable}")

report = approximation_report(host, 1, subset_budget=1 << 18)
print(f"welfare ratio vs optimum at alpha=1: {report['ratio_mrcst']} "
      f"(bound m/(n-1)+1 = {report['ratio_bound']})")

# a host where the greedy seed is not yet swap-maximal
k26 = HostGraph(8, [(a, b) for a in (0, 1) for b in range(2, 8)])
r = smrcst(k26)
print(f"\ncomplete bipartite K_2,6: seed cost improves over {r.iterations} "
      f"swap(s) to {r.routing_cost} (exact max {mrcst_exact(k26).total})")
