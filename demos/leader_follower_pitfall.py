"""Why naive best-response smoothing solves the wrong problem.

In a game that is not zero-sum, folding one player's best response into
the other's objective and minimizing converges to the leader-follower
optimum, which is a different point from the simultaneous equilibrium.
This demo runs both dynamics on a game small enough that both limits are
known in closed form.

Run: python demos/leader_follower_pitfall.py
"""

from nzs import (solve_icl, stackelberg_demo, stackelberg_example,
                 stackelberg_reference_points)

game = stackelberg_example()
nash, leader = stackelberg_reference_points()

print("closed-form reference points:")
print(f"  simultaneous equilibrium: x = {nash.x}, y = {nash.y}")
print(f"  leader-follower optimum : x = {leader.x}, y = {leader.y}")
print(f"  separation: {nash.distance_to(leader):.4f}")

limit = stackelberg_demo()
print("\nbest-response descent (player 2 folded in) converged to:")
print(f"  x = {limit.x}, y = {limit.y}")
print(f"  distance to leader-follower optimum: "
      f"{limit.distance_to(leader):.2e}")
print(f"  distance to the equilibrium:         "
      f"{limit.distance_to(nash):.2e}   <- not the equilibrium")
assert limit.distance_to(leader) <= 1e-6
assert limit.distance_to(nash) >= 1e-2

rep = solve_icl(game, 2.5e-13)
print("\ncoupling linearization on the same game converged to:")
print(f"  x = {rep.point.x}, y = {rep.point.y}")
print(f"  distance to the equilibrium:         "
      f"{rep.point.distance_to(nash):.2e}")
assert rep.point.distance_to(nash) <= 1e-6
