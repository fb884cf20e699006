"""The coin-rolling puzzle, settled three ways.

Roll a coin once around another coin of the same size without slipping.
How many times does it turn? The gearing answer alone says once per lap,
but the contact normal also sweeps a curve on the sphere of directions,
and that curve contributes a geometric turn of its own.

Three motions, same radii a=b=1:
  i   rim-to-rim in a flat valley    -> two full turns
  ii  the classic tabletop roll      -> one full turn
  iii rolling over the top           -> no net turn at all

Each answer is computed analytically and then confirmed by integrating
the rigid-body kinematics step by step.

Run:  python3 demos/rolling_coin.py
"""

import math

from geophase import (dynamical_phase, example_gallery, geometric_phase_line,
                      simulate_rolling)

PI = math.pi

for name, story in [("i", "rolling inside a flat valley"),
                    ("ii", "rolling upright around the rim"),
                    ("iii", "rolling over the top")]:
    path = example_gallery(name)
    gearing = dynamical_phase(path)
    geometric = geometric_phase_line(path)
    total = gearing + geometric

    trace = simulate_rolling(path)
    sim_err = abs(trace.delta_oracle - total)

    turns = total / (2.0 * PI)
    print(f"motion {name}: {story}")
    print(f"  gearing part    {gearing / PI:+6.3f} pi")
    print(f"  geometric part  {geometric / PI:+6.3f} pi")
    print(f"  total rotation  {total / PI:+6.3f} pi  = {turns:+.3f} turns")
    print(f"  rigid-body simulation agrees to {sim_err:.1e} rad")
    print()

print("the gearing part is identical in all three cases; only the path of")
print("the contact direction on the sphere tells them apart.")
