"""How the set of stable states changes with alpha on a complete host.

Small alpha: only spanning trees survive. Large alpha: only the clique.
In between, paths, the clique, and clique-like patterns coexist.
"""

from fractions import Fraction

from sdncg import (
    GameState,
    clique,
    enumerate_stable_states,
    full_state,
    is_pairwise_stable,
    threshold_table,
)

n = 5
host = clique(n)
print(f"thresholds for n = {n}:")
t = threshold_table(n)
print(f"  optimum flips path->clique at n/3        = {t.clique_optimal}")
print(f"  path stays stable up to (n-1)/2          = {t.path_stable_limit}")
print(f"  only the clique is stable beyond n/2     = {t.clique_unique}")
print(f"  only the host is stable beyond (n^2-5n+8)/2 = {t.host_unique}")
print(f"  the host is the only optimum beyond n(n-1)(n-2)/6 = {t.host_optimal}")

for alpha in (Fraction(3, 4), Fraction(1), Fraction(2), Fraction(11, 4)):
    atlas = enumerate_stable_states(host, alpha, budget=1 << 12)
    trees = sum(1 for st in atlas.stable_states if st.is_tree)
    print(f"\nalpha = {alpha}: {atlas.stable_count} stable states "
          f"({trees} trees) out of {atlas.states_examined} connected states")
    print(f"  welfare range [{atlas.worst_welfare}, {atlas.best_welfare}]")

path_state = GameState(host, [(i, i + 1) for i in range(n - 1)])
print(f"\npath stable at alpha=(n-1)/2: "
      f"{is_pairwise_stable(path_state, t.path_stable_limit).stable}")
print(f"clique stable at alpha=1: {is_pairwise_stable(full_state(host), 1).stable}")
print(f"clique stable at alpha=9/10: "
      f"{is_pairwise_stable(full_state(host), Fraction(9, 10)).stable}")
