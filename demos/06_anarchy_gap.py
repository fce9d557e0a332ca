"""Exact price of anarchy and price of stability at desk scale.

The worst stable state can be far from the optimum (PoA grows with n), yet
some optimal state is always stable on complete hosts (PoS = 1).
"""

import io
import random
from fractions import Fraction

from sdncg import (
    clique,
    optimum_exact,
    poa_exact,
    pos_exact,
    random_connected_host,
    sweep_host,
    write_sweep_csv,
)

host = clique(6)
alpha = Fraction(1)
opt = optimum_exact(host, alpha, budget=1 << 16)
print(f"K_6 at alpha=1: optimum welfare {opt.welfare} "
      f"({len(opt.best_states)} labeled optima, all paths)")
print(f"  PoA = {poa_exact(host, alpha, 1 << 16)}   (worst stable: star or clique)")
print(f"  PoS = {pos_exact(host, alpha, 1 << 16)}   (the path itself is stable)")

print("\nsweep over a few random hosts (CSV report):")
rng = random.Random(12)
hosts = [random_connected_host(rng.randint(4, 6), 0.5, rng) for _ in range(3)]
rows = [row for h in hosts for row in sweep_host(h, (Fraction(1, 2), Fraction(3)), budget=1 << 16)]
buf = io.StringIO()
write_sweep_csv(rows, buf)
print(buf.getvalue())
