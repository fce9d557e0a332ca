"""Improving-move dynamics: convergence, and the cycle that rules out a
potential function.

Letting agents play improving moves one at a time can settle at a stable
state, but it can also loop forever: there are improving cycles, so no
potential function argument can prove equilibrium existence.
"""

from fractions import Fraction

from sdncg import (
    GameState,
    clique,
    find_improving_cycle,
    full_state,
    replay_validates_cycle,
    run_dynamics,
)

# small alpha: agents shed edges until a spanning tree remains
out = run_dynamics(full_state(clique(4)), Fraction(1, 2), policy="first", budget=100)
print(f"K_4 at alpha=1/2, first-improving: {out.terminal} after {out.steps} moves")
print(f"  final state is a tree: {out.final_state.is_tree}")
for key, mv in out.trajectory:
    print(f"  {mv}")

# alpha <= 1 from any tree: nothing to do
tree = GameState(clique(5), [(0, i) for i in range(1, 5)])
out = run_dynamics(tree, 1, policy="best", budget=100)
print(f"\nstar on K_5 at alpha=1: {out.terminal} after {out.steps} moves")

# the game is not a potential game: improving moves can cycle
alpha = Fraction(5, 2)
cyc = find_improving_cycle(5, alpha)
print(f"\nsearching K_5 at alpha={alpha} for a state-revisiting trajectory...")
print(f"found after {cyc.steps} improving moves; cycle starts at step {cyc.cycle_start}")
print(f"replay check: {replay_validates_cycle(cyc, alpha)}")
print("the cycle:")
for key, mv in cyc.trajectory[cyc.cycle_start:]:
    print(f"  {mv}")

# the search is exhaustive: None with budget to spare rules cycles out
print(f"\nK_5 at alpha=3 has an improving cycle: {find_improving_cycle(5, 3) is not None}")
